package machine

// Micro-benchmarks of the simulator itself: operation throughput
// across thread counts, the cost of a scheduler switch, transactional
// operation cost, and sampling overhead — the numbers that bound how
// large a workload the harness can run. Throughput benchmarks report
// ops/sec (higher is better) alongside ns/op so benchdiff can gate on
// either direction.

import (
	"fmt"
	"testing"

	"txsampler/internal/pmu"
	"txsampler/internal/telemetry"
)

// benchOps drives threads through b.N total operations (one simulated
// Compute per unit of work, split evenly across threads) under the
// given config and reports aggregate ops/sec.
func benchOps(b *testing.B, cfg Config) {
	b.ReportAllocs()
	perThread := b.N/cfg.Threads + 1
	m := New(cfg)
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		_ = m.RunAll(func(t *Thread) {
			for i := 0; i < perThread; i++ {
				t.Compute(1)
			}
		})
		close(done)
	}()
	<-done
	b.StopTimer()
	ops := float64(perThread) * float64(cfg.Threads)
	b.ReportMetric(ops/b.Elapsed().Seconds(), "ops/sec")
}

func BenchmarkOpThroughputSingleThread(b *testing.B) {
	benchOps(b, Config{Threads: 1})
}

func BenchmarkOpThroughput8Threads(b *testing.B) {
	benchOps(b, Config{Threads: 8})
}

// BenchmarkSchedulerOpsPerSec is the headline scheduler-throughput
// number: simulated operations per second in native mode (no PMU, no
// handler), where the scheduler itself is the only cost. Private
// Compute operations never gate, and one simulated thread runs at a
// time, so the 8threads/1thread ratio stays near 1 on any host.
// 8threads-serial keeps its name from the retired baton scheduler and
// now runs Quantum=1: a quantum tick after every operation.
func BenchmarkSchedulerOpsPerSec(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%dthreads-native", n), func(b *testing.B) {
			benchOps(b, Config{Threads: n})
		})
	}
	b.Run("8threads-serial", func(b *testing.B) {
		benchOps(b, Config{Threads: 8, Quantum: 1})
	})
}

// BenchmarkSchedulerHandoff times a scheduler switch: every thread
// Loads the same word in a loop, so each shared operation blocks at
// its gate until the other threads catch up and nearly every operation
// costs a coroutine switch. It reports ns per switch and switches per
// operation.
func BenchmarkSchedulerHandoff(b *testing.B) {
	for _, n := range []int{2, 4, 14} {
		b.Run(fmt.Sprintf("%dthreads", n), func(b *testing.B) {
			b.ReportAllocs()
			m := New(Config{Threads: n})
			a := m.Mem.AllocWords(1)
			perThread := b.N/n + 1
			b.ResetTimer()
			if err := m.RunAll(func(t *Thread) {
				for i := 0; i < perThread; i++ {
					t.Load(a)
				}
			}); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			switches := float64(m.sched.resumes)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/switches, "ns/switch")
			b.ReportMetric(switches/float64(perThread*n), "switches/op")
		})
	}
}

// BenchmarkTelemetryOverhead bounds what the telemetry hooks cost the
// scheduler hot path. "off" is the shipping default — a nil tracer,
// one predictable branch per instrumentation site. "serial-off" and
// "serial-on" keep their names from the retired baton scheduler, which
// tracing used to force; both now run the one scheduler, without and
// with a tracer, so the pair isolates the recording cost, and -trace
// is expected to stay within ~2x of disabled on it.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchOps(b, Config{Threads: 8})
	})
	b.Run("serial-off", func(b *testing.B) {
		benchOps(b, Config{Threads: 8})
	})
	b.Run("serial-on", func(b *testing.B) {
		benchOps(b, Config{Threads: 8, Trace: telemetry.NewTracer(0)})
	})
}

func BenchmarkTransactionalIncrement(b *testing.B) {
	b.ReportAllocs()
	m := New(Config{Threads: 1})
	a := m.Mem.AllocWords(1)
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		_ = m.RunAll(func(t *Thread) {
			for i := 0; i < b.N; i++ {
				t.Attempt(func() { t.Add(a, 1) })
			}
		})
		close(done)
	}()
	<-done
}

func BenchmarkSampledExecution(b *testing.B) {
	b.ReportAllocs()
	var p pmu.Periods
	p[pmu.Cycles] = 500
	m := New(Config{Threads: 1, Periods: p})
	m.SetHandler(&collectHandler{})
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		_ = m.RunAll(func(t *Thread) {
			for i := 0; i < b.N; i++ {
				t.Compute(10)
			}
		})
		close(done)
	}()
	<-done
}
