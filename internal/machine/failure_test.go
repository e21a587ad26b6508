package machine

// Failure injection: the machine must fail fast and loudly on broken
// workloads and broken profilers, never hang or corrupt state.

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"txsampler/internal/pmu"
)

func TestPanicWhileHoldingSpinLockFailsFast(t *testing.T) {
	// Thread 1 dies while other threads spin on a word it owns; the
	// scheduler must surface the panic instead of spinning forever.
	m := New(Config{Threads: 3})
	lock := m.Mem.AllocLines(1)
	err := m.Run(
		func(t *Thread) {
			for t.Load(lock) == 0 {
				t.Compute(2)
			}
		},
		func(t *Thread) {
			t.AtomicCAS(lock, 0, 1)
			t.Store(lock, 0)
			panic("injected fault")
		},
		func(t *Thread) {
			for t.Load(lock) == 0 {
				t.Compute(2)
			}
		},
	)
	if err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("err = %v, want the injected fault", err)
	}
}

type panickyHandler struct{ after int }

func (h *panickyHandler) HandleSample(s *Sample) {
	h.after--
	if h.after <= 0 {
		panic("profiler bug")
	}
}

func TestPanickingHandlerSurfaces(t *testing.T) {
	var p pmu.Periods
	p[pmu.Cycles] = 100
	m := New(Config{Threads: 2, Periods: p})
	m.SetHandler(&panickyHandler{after: 3})
	err := m.RunAll(func(t *Thread) {
		for i := 0; i < 100; i++ {
			t.Compute(50)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "profiler bug") {
		t.Fatalf("err = %v, want the handler panic", err)
	}
}

func TestRunTwicePanics(t *testing.T) {
	m := New(Config{Threads: 1})
	if err := m.RunAll(func(t *Thread) { t.Compute(1) }); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	_ = m.RunAll(func(t *Thread) {})
}

func TestWrongBodyCountPanics(t *testing.T) {
	m := New(Config{Threads: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched body count did not panic")
		}
	}()
	_ = m.Run(func(t *Thread) {})
}

func TestReturnWithoutCallPanicsAsWorkloadError(t *testing.T) {
	m := New(Config{Threads: 1})
	err := m.RunAll(func(t *Thread) { t.Return() })
	if err == nil || !strings.Contains(err.Error(), "empty call stack") {
		t.Fatalf("err = %v", err)
	}
}

func TestTxCommitOutsideTransactionIsWorkloadError(t *testing.T) {
	m := New(Config{Threads: 1})
	err := m.RunAll(func(t *Thread) { t.TxCommit() })
	if err == nil || !strings.Contains(err.Error(), "TxCommit outside") {
		t.Fatalf("err = %v", err)
	}
}

func TestAbortSentinelEscapingAttemptIsWorkloadError(t *testing.T) {
	// TxBegin without Attempt: the abort unwinds to the thread root
	// and must be reported, not swallowed.
	m := New(Config{Threads: 1})
	err := m.RunAll(func(t *Thread) {
		t.TxBegin()
		t.Syscall("boom")
		t.TxCommit()
	})
	if err == nil {
		t.Fatal("escaped abort sentinel not reported")
	}
}

func TestGoexitInBodyIsWorkloadError(t *testing.T) {
	// runtime.Goexit in a body (testing.T.FailNow called off the test
	// goroutine, say) ends the run with an error naming the thread
	// instead of hanging until the watchdog.
	m := New(Config{Threads: 2, Watchdog: time.Minute})
	a := m.Mem.AllocWords(1)
	err := m.RunAll(func(t *Thread) {
		t.Load(a)
		if t.ID == 1 {
			runtime.Goexit()
		}
		t.Load(a)
	})
	if err == nil || !strings.Contains(err.Error(), "thread 1 exited via runtime.Goexit") {
		t.Fatalf("err = %v", err)
	}
}
