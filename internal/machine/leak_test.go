package machine

// A failed run must not leak goroutines: after a workload panic, a
// cancellation or a MaxCycles livelock, the driver unwinds every
// suspended thread coroutine before Run returns, and the watchdog and
// context watcher exit with it.
//
// The watchdog case is exempt. There the resumed thread is blocked in
// Go code (a channel receive, a mutex), and no scheduler can unwind a
// goroutine from outside; its coroutine and the driver stay parked
// until the workload code returns, and its next quantum tick then
// stops the run (TestWatchdogDetectsBlockedThread).

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitGoroutines waits for the goroutine count to fall back to want:
// goroutines that saw the run end (the driver after its last send, the
// watchers after Run closed their stop channel) exit asynchronously.
func waitGoroutines(t *testing.T, label string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines after Run, %d before:\n%s",
				label, runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNoGoroutineLeakOnFailure(t *testing.T) {
	cases := []struct {
		name string
		want string // substring of the terminal error
		run  func() error
	}{
		{"panic", "injected fault", func() error {
			m := New(Config{Threads: 4, Watchdog: time.Minute})
			lock := m.Mem.AllocLines(1)
			return m.RunAll(func(t *Thread) {
				if t.ID == 2 {
					t.Store(lock, 1)
					panic("injected fault")
				}
				for t.Load(lock) == 0 { // suspended at this gate when the run stops
					t.Compute(2)
				}
			})
		}},
		{"cancel", ErrCanceled.Error(), func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			m := New(Config{Threads: 4, Seed: 3, StartSkew: 64, Quantum: 8, Context: ctx, Watchdog: time.Minute})
			a := m.Mem.AllocWords(8)
			return m.RunAll(func(th *Thread) {
				cancelWorkload(th, a, 1_000_000, func(i int) {
					if th.ID == 1 && i == 3 {
						cancel()
					}
				})
			})
		}},
		{"livelock", "MaxCycles", func() error {
			m := New(Config{Threads: 3, MaxCycles: 100_000, Watchdog: time.Minute})
			lock := m.Mem.AllocLines(1)
			m.Mem.Store(lock, 1) // never released
			return m.RunAll(func(t *Thread) {
				for !t.AtomicCAS(lock, 0, 1) {
					t.Compute(3)
				}
			})
		}},
	}
	for _, c := range cases {
		before := runtime.NumGoroutine()
		err := c.run()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want %q", c.name, err, c.want)
		}
		if c.name == "cancel" && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel: err = %v, want context.Canceled cause", err)
		}
		waitGoroutines(t, c.name, before)
	}
}

// TestStoppedThreadRepanicsAtEveryGate: a workload that recovers the
// unwind sentinel and carries on still cannot run shared operations
// after the run stopped. Every later gate re-panics the sentinel, so
// the thread unwinds and Run returns.
func TestStoppedThreadRepanicsAtEveryGate(t *testing.T) {
	m := New(Config{Threads: 2, Watchdog: time.Minute})
	a := m.Mem.AllocWords(1)
	var swallowed, after int
	before := runtime.NumGoroutine()
	err := m.Run(
		func(t *Thread) {
			t.Load(a)
			t.Load(a) // waits here while thread 1 starts its loop
			panic("injected fault")
		},
		func(t *Thread) {
			func() {
				defer func() {
					if recover() != nil {
						swallowed++
					}
				}()
				for {
					t.Load(a) // the run stops while this thread waits here
				}
			}()
			after++
			t.Load(a) // must unwind again
			after++
		},
	)
	if err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("err = %v, want the injected fault", err)
	}
	if swallowed != 1 || after != 1 {
		t.Fatalf("swallowed=%d after=%d, want 1 and 1: a gate ran after the run stopped", swallowed, after)
	}
	waitGoroutines(t, "swallowed sentinel", before)
}
