package machine

// Quantum invariance: Quantum=1 runs the quantum tick (status
// snapshot, watchdog progress, cancellation check) after every
// operation, and any larger quantum must reproduce that run exactly —
// same sample stream, same clocks, same ground truth.

import (
	"reflect"
	"testing"

	"txsampler/internal/pmu"
)

type quantumRun struct {
	samples []*Sample
	elapsed uint64
	total   uint64
	commits []uint64
	aborts  []uint64
	mem     uint64 // final memory fingerprint
}

func runQuantumWorkload(t *testing.T, quantum int) quantumRun {
	t.Helper()
	var p pmu.Periods
	p[pmu.Cycles] = 400
	p[pmu.TxAbort] = 4
	p[pmu.TxCommit] = 8
	p[pmu.Loads] = 300
	p[pmu.Stores] = 300
	m := New(Config{Threads: 4, Seed: 42, Periods: p, StartSkew: 512, Quantum: quantum})
	h := &collectHandler{}
	m.SetHandler(h)
	a := m.Mem.AllocWords(8)
	err := m.RunAll(func(t *Thread) {
		for i := 0; i < 200; i++ {
			t.Func("worker", func() {
				t.At("loop")
				for {
					if t.Attempt(func() {
						t.Add(a.Offset(i%8), 1)
						t.Compute(5)
					}) == nil {
						break
					}
					t.Compute(20) // backoff before the retry
				}
			})
		}
	})
	if err != nil {
		t.Fatalf("quantum %d: %v", quantum, err)
	}
	r := quantumRun{samples: h.samples, elapsed: m.Elapsed(), total: m.TotalCycles(), mem: m.Mem.Fingerprint()}
	g := m.GroundTruth()
	r.commits = g.PerThreadCommits
	r.aborts = g.PerThreadAborts
	return r
}

func TestQuantumSampleStreamEquivalence(t *testing.T) {
	perOp := runQuantumWorkload(t, 1)
	for _, quantum := range []int{2, 64, 0 /* DefaultQuantum */} {
		batched := runQuantumWorkload(t, quantum)
		if batched.elapsed != perOp.elapsed || batched.total != perOp.total {
			t.Fatalf("quantum %d: clocks diverge: elapsed %d vs %d, total %d vs %d",
				quantum, batched.elapsed, perOp.elapsed, batched.total, perOp.total)
		}
		if !reflect.DeepEqual(batched.commits, perOp.commits) || !reflect.DeepEqual(batched.aborts, perOp.aborts) {
			t.Fatalf("quantum %d: ground truth diverges: commits %v vs %v, aborts %v vs %v",
				quantum, batched.commits, perOp.commits, batched.aborts, perOp.aborts)
		}
		if len(batched.samples) != len(perOp.samples) {
			t.Fatalf("quantum %d: %d samples vs %d per-op", quantum, len(batched.samples), len(perOp.samples))
		}
		for i := range perOp.samples {
			if !reflect.DeepEqual(batched.samples[i], perOp.samples[i]) {
				t.Fatalf("quantum %d: sample %d diverges:\nbatched: %+v\nper-op:  %+v",
					quantum, i, batched.samples[i], perOp.samples[i])
			}
		}
	}
}

// TestQuantumValidation covers the new Config knob's edges.
func TestQuantumValidation(t *testing.T) {
	if err := (Config{Quantum: -1}).Validate(); err == nil {
		t.Fatal("negative quantum accepted")
	}
	if got := (Config{}).withDefaults().Quantum; got != DefaultQuantum {
		t.Fatalf("zero quantum defaulted to %d, want %d", got, DefaultQuantum)
	}
}
