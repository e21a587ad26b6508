package main

import (
	"fmt"

	"txsampler"
	"txsampler/internal/htmbench"
	"txsampler/internal/machine"
	"txsampler/internal/pmem"
	"txsampler/internal/telemetry"
)

// workload is one benchmark input set: the programs run in a closed
// loop, one run in flight, each with the same options. The simulated
// thread count is part of the input, not load-generator concurrency.
type workload struct {
	name     string
	programs []string
	threads  int
	opts     txsampler.Options
	// seeds is how many seeds per program the run list holds. One
	// seed's run time and profiling overhead swing with its inputs and
	// schedule, so cheap workloads pool many.
	seeds int
}

// paperPrograms span the paper's categories: a micro benchmark with
// every abort cause, a conflict-bound list, two STAMP programs (one
// capacity-bound), a PARSEC pipeline and a Parboil histogram.
var paperPrograms = []string{
	"micro/mixed", "synchro/linkedlist", "stamp/vacation",
	"parsec/dedup", "stamp/labyrinth", "parboil/histo-1",
}

var workloads = []workload{
	// The paper's 14 threads, far more than the host's cores: the
	// sharded scheduler's min-clock gate dominates host time here.
	// A run costs about a second here, so one seed a program.
	{name: "paper-14t", programs: paperPrograms, threads: 14, seeds: 1},
	// Little scheduling: host time goes to per-operation simulation and
	// the post-run pipeline; a scheduler change should not move it.
	{name: "paper-2t", programs: paperPrograms, threads: 2, seeds: 16},
	// The only mix that drives the STM slow path, the elision ladder
	// and the pmem persist epilogue.
	{name: "tiers-4t", threads: 4, seeds: 48,
		programs: []string{
			"elide/read-mostly", "elide/counter", "elide/syscall-section",
			"pmem/kv", "pmem/log", "stamp/kmeans",
		},
		opts: txsampler.Options{
			Hybrid:  machine.HybridStmFallback,
			Elision: machine.ElisionOn,
			Pmem:    pmem.Config{Enabled: true},
		}},
}

func lookupWorkload(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// job is one (program, seed) pair of a workload's run list.
type job struct {
	w    *htmbench.Workload
	seed int64
}

// jobs derives the run list from the workload seed: seeds rounds over
// the programs, each job with its own derived seed, so the same
// workload seed always gives the same inputs.
func (wl workload) jobs(seed int64) ([]job, error) {
	out := make([]job, 0, wl.seeds*len(wl.programs))
	for k := 0; k < wl.seeds; k++ {
		for _, name := range wl.programs {
			w, err := htmbench.Get(name)
			if err != nil {
				return nil, err
			}
			out = append(out, job{w: w, seed: deriveSeed(seed, len(out))})
		}
	}
	return out, nil
}

// deriveSeed mixes the workload seed with a program index (splitmix64
// finalizer) into a non-negative program seed.
func deriveSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64((z ^ z>>31) >> 33)
}

// options are what the program under test receives for one run: the
// workload's options with this job's threads and seed, profiling on
// and a fresh metrics registry, as the txsampler CLI sets them.
func (wl workload) options(j job) txsampler.Options {
	o := wl.opts
	o.Threads, o.Seed, o.Profile = wl.threads, j.seed, true
	o.Metrics = telemetry.NewRegistry()
	return o
}
