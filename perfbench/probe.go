package main

import (
	"math"
	"runtime/metrics"
	"syscall"
)

// hostProbe reads host-side counters the Go runtime and the kernel
// keep for the whole process.
type hostProbe struct {
	sched []metrics.Sample
	cpu   []metrics.Sample
}

func newHostProbe() *hostProbe {
	return &hostProbe{
		sched: []metrics.Sample{{Name: "/sched/latencies:seconds"}},
		cpu: []metrics.Sample{
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
			{Name: "/cpu/classes/total:cpu-seconds"},
			{Name: "/cpu/classes/idle:cpu-seconds"},
		},
	}
}

// cpuNs is the process's user plus system CPU time. The runtime's
// /cpu/classes metrics are only brought up to date at the end of a GC
// cycle, too rarely to split one machine.run span, so the kernel's
// count is used here.
func (p *hostProbe) cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// maxRSSBytes is the process's peak resident set size.
func (p *hostProbe) maxRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// schedWaitNs estimates the total time goroutines have spent runnable
// but not running, from the runtime's latency histogram (bucket
// midpoints times counts). The runtime samples which transitions it
// records, so compare the value between runs rather than reading it
// as a full total.
func (p *hostProbe) schedWaitNs() float64 {
	metrics.Read(p.sched)
	if p.sched[0].Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := p.sched[0].Value.Float64Histogram()
	var sum float64
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		sum += float64(n) * (lo + hi) / 2
	}
	return sum * 1e9
}

// gcCPU returns cumulative GC CPU seconds and busy (non-idle) CPU
// seconds; the ratio of two deltas is the GC's share of busy CPU.
func (p *hostProbe) gcCPU() (gc, busy float64) {
	metrics.Read(p.cpu)
	v := func(i int) float64 {
		if p.cpu[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return p.cpu[i].Value.Float64()
	}
	return v(0), v(1) - v(2)
}
