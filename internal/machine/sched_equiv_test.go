package machine

// Scheduler fingerprints: the canonical (clock, ID) schedule of a few
// contended workloads, pinned as golden digests of everything the
// schedule determines — every delivered sample, both cycle totals, the
// per-thread ground truth and the final memory image. The digests were
// recorded from the per-op schedule, so any scheduler that admits one
// shared operation out of order fails here. The scenarios are the
// scheduler's edge cases: threads tied at the same minimum clock, a
// thread exiting while it holds the minimum, and Quantum=1, where the
// quantum bookkeeping runs after every operation.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"txsampler/internal/pmu"
)

// runDigest hashes every observable of a captured run. Samples are
// written field by field (the abort record by value), so the digest
// depends on content only.
func runDigest(r quantumRun) string {
	h := sha256.New()
	fmt.Fprintf(h, "elapsed=%d total=%d mem=%#x commits=%v aborts=%v\n", r.elapsed, r.total, r.mem, r.commits, r.aborts)
	for _, s := range r.samples {
		fmt.Fprintf(h, "%d %d %d %v %v %d %v %d %v %v %v %v", s.Event, s.TID, s.Time, s.IP, s.LBR, s.State,
			s.Stack, s.Addr, s.IsWrite, s.HasAddr, s.TruthStack, s.TruthInTx)
		if s.Abort != nil {
			fmt.Fprintf(h, " abort=%+v", *s.Abort)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// requireDigest fails unless the run reproduces the golden digest.
func requireDigest(t *testing.T, label string, r quantumRun, want string) {
	t.Helper()
	if len(r.samples) == 0 {
		t.Fatalf("%s: workload produced no samples; the digest is vacuous", label)
	}
	if got := runDigest(r); got != want {
		t.Fatalf("%s: run digest %s, want %s (elapsed=%d total=%d samples=%d)",
			label, got, want, r.elapsed, r.total, len(r.samples))
	}
}

// contendedConfig is the quantum_test workload config, parameterized by
// quantum and start skew.
func contendedConfig(quantum int, skew uint64) Config {
	var p pmu.Periods
	p[pmu.Cycles] = 400
	p[pmu.TxAbort] = 4
	p[pmu.TxCommit] = 8
	p[pmu.Loads] = 300
	p[pmu.Stores] = 300
	return Config{Threads: 4, Seed: 42, Periods: p, StartSkew: skew, Quantum: quantum}
}

// contendedBody returns the quantum_test transactional workload: every
// thread hammers the same 8 words, so aborts, retries, and samples all
// depend on the exact interleaving the scheduler picks.
func contendedBody(m *Machine, iters int) func(*Thread) {
	a := m.Mem.AllocWords(8)
	return func(t *Thread) {
		for i := 0; i < iters; i++ {
			t.Func("worker", func() {
				t.At("loop")
				for {
					if t.Attempt(func() {
						t.Add(a.Offset(i%8), 1)
						t.Compute(5)
					}) == nil {
						break
					}
					t.Compute(20)
				}
			})
		}
	}
}

// captureRun runs body on a fresh machine and captures every
// schedule-determined observable.
func captureRun(t *testing.T, cfg Config, body func(m *Machine) func(*Thread)) quantumRun {
	t.Helper()
	m := New(cfg)
	h := &collectHandler{}
	m.SetHandler(h)
	if err := m.RunAll(body(m)); err != nil {
		t.Fatalf("quantum %d: %v", cfg.Quantum, err)
	}
	r := quantumRun{samples: h.samples, elapsed: m.Elapsed(), total: m.TotalCycles(), mem: m.Mem.Fingerprint()}
	g := m.GroundTruth()
	r.commits = g.PerThreadCommits
	r.aborts = g.PerThreadAborts
	return r
}

// runContended runs the contended workload.
func runContended(t *testing.T, cfg Config, iters int) quantumRun {
	t.Helper()
	return captureRun(t, cfg, func(m *Machine) func(*Thread) { return contendedBody(m, iters) })
}

// runEarlyExit exits a thread while it holds the minimum clock: thread
// 0 stops after a handful of operations while the rest keep going, so
// the scheduler must drop it from the live set or every other thread
// would wait forever behind a clock that can no longer advance.
func runEarlyExit(t *testing.T, quantum int) quantumRun {
	t.Helper()
	var p pmu.Periods
	p[pmu.Cycles] = 250
	p[pmu.Stores] = 100
	return captureRun(t, Config{Threads: 4, Seed: 7, Periods: p, Quantum: quantum}, func(m *Machine) func(*Thread) {
		a := m.Mem.AllocWords(4)
		return func(t *Thread) {
			iters := 400
			if t.ID == 0 {
				iters = 3 // exits holding the minimum clock
			}
			for i := 0; i < iters; i++ {
				t.Store(a.Offset(t.ID%4), uint64(i))
				t.Compute(2)
			}
		}
	})
}

// Golden digests of the canonical schedule.
const (
	digestContended      = "3b98de9fe5f7f0418bbb512ed759552a9bdb73525d3be89541759c1d9ccd7248"
	digestContendedPerOp = "44eca17fb070358cddd93f4d2e5e013d8aa9660ccce3c35ea890a21e7fe49a7d"
	digestTiedClocks     = "bc2bd51798e6e1110bf930710305e4f6bb7706c3f57aab46d425c2f244ed5f0b"
	digestEarlyExit      = "b558ed7d93a94ec95f3873baa6e2ded346ad0b6a68ca60703b112aa9c6bf2dbd"
)

// TestSchedulerFingerprintAcrossGOMAXPROCS: the schedule is a function
// of the seed alone, whatever the host parallelism.
func TestSchedulerFingerprintAcrossGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		requireDigest(t, fmt.Sprintf("GOMAXPROCS=%d", procs), runContended(t, contendedConfig(0, 512), 150), digestContended)
	}
}

// TestSchedulerFingerprintQuantum1 runs the per-op bookkeeping
// schedule (a quantum tick after every operation).
func TestSchedulerFingerprintQuantum1(t *testing.T) {
	requireDigest(t, "quantum=1", runContended(t, contendedConfig(1, 512), 100), digestContendedPerOp)
}

// TestHorizonIdenticalMinClock ties threads at the same clock: with
// StartSkew=0 and identical bodies every thread reaches each shared
// operation at exactly the same clock, so every tie must break by
// thread ID.
func TestHorizonIdenticalMinClock(t *testing.T) {
	for _, q := range []int{0, 1} {
		requireDigest(t, fmt.Sprintf("tied clocks, quantum=%d", q), runContended(t, contendedConfig(q, 0), 100), digestTiedClocks)
	}
}

// TestHorizonThreadExitWhileMin: see runEarlyExit.
func TestHorizonThreadExitWhileMin(t *testing.T) {
	for _, q := range []int{0, 1} {
		requireDigest(t, fmt.Sprintf("early exit, quantum=%d", q), runEarlyExit(t, q), digestEarlyExit)
	}
}
