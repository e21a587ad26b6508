package main

import (
	"io"
	"math"
	"testing"
)

func TestTailPercentileKeepsTenRunsBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 1, want: 50, ok: false},
		{n: 19, want: 50, ok: false},
		{n: 20, want: 50, ok: true},  // rank 10, 10 beyond
		{n: 39, want: 50, ok: true},  // p75 rank 30 leaves 9
		{n: 40, want: 75, ok: true},  // p75 rank 30, 10 beyond
		{n: 99, want: 75, ok: true},  // p90 rank 90 leaves 9
		{n: 100, want: 90, ok: true}, // p90 rank 90, 10 beyond
		{n: 200, want: 95, ok: true},
		{n: 10000, want: 95, ok: true}, // p99 would qualify; the grid stops at p95
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rank(got, tc.n) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%v leaves %d runs beyond it", tc.n, got, tc.n-rank(got, tc.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 99.9: 100, 0: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "run", Parent: -1, Start: 0, End: 100},
		{Name: "machine.run", Parent: 0, Start: 10, End: 60},
		// Two handler calls overlap (30..45 is covered once) and a
		// third sticks out of its parent (clipped at 60).
		{Name: "core.handle_sample", Parent: 1, Start: 20, End: 40},
		{Name: "core.handle_sample", Parent: 1, Start: 30, End: 45},
		{Name: "core.handle_sample", Parent: 1, Start: 55, End: 70},
		{Name: "profile.encode", Parent: 0, Start: 70, End: 90},
		// A grandchild of run: it is inside profile.encode already, so
		// run's self time must not lose it a second time.
		{Name: "inner", Parent: 5, Start: 75, End: 85},
	}
	got := selfTimes(spans)
	want := []int64{
		100 - 50 - 20, // run minus its two direct children
		50 - 25 - 5,   // machine.run minus union [20,45) and [55,60)
		20, 15, 15,    // leaves
		20 - 10, // profile.encode minus inner
		10,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s #%d) = %d, want %d", spans[i].Name, i, got[i], want[i])
		}
	}
}

func TestCoveredContainedAndDisjoint(t *testing.T) {
	ivs := [][2]int64{{5, 10}, {6, 8}, {12, 15}, {-5, 1}, {20, 30}}
	if got := covered(0, 14, ivs); got != 1+5+2 {
		t.Errorf("covered = %d, want 8", got)
	}
	if got := covered(0, 14, nil); got != 0 {
		t.Errorf("covered(nil) = %d, want 0", got)
	}
}

func TestGeoMeanOverhead(t *testing.T) {
	got, err := geoMeanOverhead([]uint64{110, 121}, []uint64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	// sqrt(1.1 * 1.21) = 1.1^1.5
	if want := (math.Pow(1.1, 1.5) - 1) * 100; math.Abs(got-want) > 1e-9 {
		t.Errorf("overhead = %v, want %v", got, want)
	}
	// A program profiling makes faster pulls the mean down, never
	// below -100%.
	got, err = geoMeanOverhead([]uint64{90, 110}, []uint64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if want := (math.Sqrt(0.9*1.1) - 1) * 100; math.Abs(got-want) > 1e-9 {
		t.Errorf("overhead = %v, want %v", got, want)
	}
	for _, bad := range [][2][]uint64{{{1}, {1, 2}}, {nil, nil}, {{0}, {5}}, {{5}, {0}}} {
		if _, err := geoMeanOverhead(bad[0], bad[1]); err == nil {
			t.Errorf("geoMeanOverhead(%v, %v) accepted bad input", bad[0], bad[1])
		}
	}
}

func TestValidName(t *testing.T) {
	for _, name := range []string{"run_ms_p50", "rtm.share.elided-htm", "go.gc_cpu_pct", "9lives", "a"} {
		if !validName(name) {
			t.Errorf("validName(%q) = false", name)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "b"
	}
	for _, name := range []string{"", "_lead", ".lead", "-lead", "has space", "per/sec", "pct%", "ünï", long} {
		if validName(name) {
			t.Errorf("validName(%q) = true", name)
		}
	}
	if !validName(long[:64]) {
		t.Errorf("validName of 64 characters = false")
	}
}

func TestReportRejectsBadMetrics(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    float64
	}{{"bad name", 1}, {"nan", math.NaN()}, {"inf", math.Inf(1)}} {
		r := &report{out: io.Discard, metrics: map[string]metricValue{}}
		r.add(tc.name, tc.v, "ms", "")
		if r.err == nil {
			t.Errorf("report accepted %q = %v", tc.name, tc.v)
		}
	}
}

func TestDeriveSeedIsStableAndDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 6; i++ {
		s := deriveSeed(1, i)
		if s < 0 || s != deriveSeed(1, i) || seen[s] {
			t.Fatalf("deriveSeed(1, %d) = %d: negative, unstable or repeated", i, s)
		}
		seen[s] = true
	}
	if deriveSeed(1, 0) == deriveSeed(2, 0) {
		t.Error("different workload seeds give the same program seed")
	}
}
