package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// tailGrid lists the percentiles a tail may be reported at, highest
// first. A fixed grid keeps the reported percentile from drifting with
// every extra run a faster commit fits into the same time budget. It
// stops at p95: on a 2-core host p99 moved by a quarter of its median
// between runs of the same code, as much as the largest bound a gated
// metric may have, while p95 moved by a tenth.
var tailGrid = []float64{95, 90, 75, 50}

// minBeyond is how many samples must lie above a tail percentile.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank one place up.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank percentile p of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailPercentile picks the highest grid percentile with at least
// minBeyond of n samples above it. ok is false when n is too small for
// any of them; the caller then falls back to the median.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailGrid {
		if n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 50, false
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (nearest rank, like every other percentile here).
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// geoMeanOverhead is the Figure 5 overhead: the geometric mean of
// profiled/native over the programs, minus one, in percent.
func geoMeanOverhead(profiled, native []uint64) (float64, error) {
	if len(profiled) != len(native) || len(profiled) == 0 {
		return 0, fmt.Errorf("overhead needs matching non-empty cycle lists, got %d and %d", len(profiled), len(native))
	}
	var sumLog float64
	for i := range profiled {
		if profiled[i] == 0 || native[i] == 0 {
			return 0, fmt.Errorf("program %d ran zero cycles", i)
		}
		sumLog += math.Log(float64(profiled[i]) / float64(native[i]))
	}
	return (math.Exp(sumLog/float64(len(profiled))) - 1) * 100, nil
}

// span is one timed interval at a layer boundary. Spans of one run
// share Run; Parent is the index of the enclosing span in the same
// slice, or -1 for the run's root.
type span struct {
	Run    int    `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's duration minus the part of it that its
// direct children cover. Children may overlap one another (handlers of
// different simulated threads) or stick out of their parent; only the
// union of their intervals, clipped to the parent, is subtracted, so a
// nanosecond is never taken away twice. Grandchildren are already
// inside their own parent and are not subtracted again.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s.Start, s.End, children[i])
	}
	return self
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	total, end := int64(0), lo
	for _, iv := range clipped {
		if iv[1] <= end {
			continue
		}
		total += iv[1] - max(iv[0], end)
		end = iv[1]
	}
	return total
}

// nameRE is the metric-name alphabet the result line allows.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name may label a metric: it starts with a
// letter or digit and has at most 64 letters, digits, '_', '.' and '-'.
func validName(name string) bool { return nameRE.MatchString(name) }
