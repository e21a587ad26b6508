// Command perfbench is the repository benchmark. It profiles HTMBench
// programs one at a time in a closed loop, each run doing what
// `txsampler -o db.json <program>` and `txsampler -view db.json` do,
// and checks every run's output. Untraced (-trace 0) it prints the
// end-to-end metrics; traced (-trace 1) it records a span around each
// layer's calls and prints per-layer metrics. The last line of
// standard output is one JSON object with the results. See README.md.
//
//	go run . -workload paper-2t -seed 1 -seconds 10 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"txsampler"
	"txsampler/internal/core"
	"txsampler/internal/rtm"
)

// processStart approximates the process start for the set-up time.
var processStart = time.Now()

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-14t, paper-2t or tiers-4t")
	seed := fs.Int64("seed", 1, "workload seed; the (program, seed) run list is derived from it")
	seconds := fs.Int("seconds", 10, "how long the timed loop runs (whole rounds over the run list)")
	trace := fs.Int("trace", 0, "0: untraced end-to-end metrics; 1: traced per-layer metrics")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	commit := fs.String("commit", "unknown", "source revision to record in the provenance line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := lookupWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	// Untraced runs use one P. At one P per core, the sharded
	// scheduler's handoffs between Ps made whole runs swing by up to
	// half on a shared 2-vCPU host, more than any bound allows, while
	// one P stayed near a tenth (README.md). Traced runs keep the
	// default, as the CLI runs, so the per-layer metrics show lost
	// parallelism and the 14-thread cliff.
	if *trace == 0 {
		runtime.GOMAXPROCS(1)
	}
	b := &bench{wl: wl, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		out: stdout, probe: newHostProbe()}
	rep := &report{out: stdout, metrics: map[string]metricValue{}}
	setupS, err := b.setup()
	if err == nil {
		fmt.Fprintf(stdout, "workload %s: %d programs at %d simulated threads, seed %d, closed loop with one run in flight\n",
			wl.name, len(wl.programs), wl.threads, *seed)
		if *trace == 0 {
			rep.add("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups", setupReps))
			err = b.endToEnd(rep)
		} else {
			err = b.perLayer(rep, *spans)
		}
	}
	if err == nil {
		err = rep.err
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "failed_runs_pct %.4f %% (%d failed of %d attempted)\n",
		100*ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	fmt.Fprintf(stdout, "provenance: workload=%s seed=%d trace=%d nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s rounds=%d timed_runs=%d attempted=%d\n",
		wl.name, *seed, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(),
		*commit, b.rounds, b.timedRuns, b.attempted)
	line, err := json.Marshal(result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: rep.metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench is one invocation: a workload, its run list and the checks
// every run's output must pass.
type bench struct {
	wl     workload
	seed   int64
	jobs   []job
	budget time.Duration
	out    io.Writer
	probe  *hostProbe

	// refs holds, per job, the first good output; every later run of
	// the same (program, seed) must reproduce it exactly.
	refs              []*fingerprint
	attempted, failed int
	rounds, timedRuns int
}

// record counts one run and checks its output against the job's
// reference. job < 0 skips the comparison (native runs produce no
// profile). It reports whether the run is good.
func (b *bench) record(job int, fp fingerprint, err error, kind string) bool {
	b.attempted++
	if err == nil && job >= 0 {
		if ref := b.refs[job]; ref == nil {
			b.refs[job] = &fp
		} else if *ref != fp {
			j := b.jobs[job]
			err = fmt.Errorf("%s seed %d: %w (digest %x vs %x, elapsed %d vs %d, total %d vs %d, collector %d vs %d bytes)",
				j.w.Name, j.seed, errMismatch, fp.digest[:6], ref.digest[:6], fp.elapsed, ref.elapsed,
				fp.total, ref.total, fp.collectorBytes, ref.collectorBytes)
		}
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(b.out, "FAILED %s run: %v\n", kind, err)
		return false
	}
	return true
}

// setup resolves the run list and warms every layer with one full
// untraced run of each job, at the workload's own thread count; those
// runs set the reference outputs the later runs are checked against.
// It sets up setupReps times and returns the median set-up time in
// seconds.
func (b *bench) setup() (float64, error) {
	var took []float64
	for len(took) < setupReps {
		t0 := time.Now()
		jobs, err := b.wl.jobs(b.seed)
		if err != nil {
			return 0, err
		}
		if b.refs == nil {
			b.jobs, b.refs = jobs, make([]*fingerprint, len(jobs))
		}
		for i, j := range jobs {
			_, fp, err := untraced(b.wl, j)
			if !b.record(i, fp, err, "warm-up") {
				return 0, fmt.Errorf("warm-up of %s failed", j.w.Name)
			}
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return median(took), nil
}

// loop runs whole rounds over the run list until d has passed (at
// least one round), so every program appears equally often.
func (b *bench) loop(d time.Duration, each func(round, i int, j job)) {
	for start, round := time.Now(), 0; round == 0 || time.Since(start) < d; round++ {
		for i, j := range b.jobs {
			each(round, i, j)
		}
		b.rounds++
	}
}

// endToEnd times untraced runs, then computes the deterministic
// metrics (Figure 5 overhead, attribution accuracy, collector size)
// outside the timed loop.
func (b *bench) endToEnd(rep *report) error {
	fmt.Fprintf(b.out, "first timed run starts %.3f s after process start\n", time.Since(processStart).Seconds())
	type timed struct {
		ms    float64
		total uint64
	}
	var runs []timed
	n := len(b.wl.programs)
	perProgram := make([][]float64, n)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.loop(b.budget, func(_, i int, j job) {
		wall, fp, err := untraced(b.wl, j)
		if b.record(i, fp, err, "timed") {
			ms := float64(wall) / 1e6
			runs = append(runs, timed{ms, fp.total})
			perProgram[i%n] = append(perProgram[i%n], ms)
		}
	})
	b.timedRuns = len(runs)
	runtime.ReadMemStats(&ms1)
	rssMB := b.probe.maxRSSBytes() / 1e6

	native := make([]uint64, len(b.jobs))
	var acc core.Accuracy
	for i, j := range b.jobs {
		o := b.wl.options(j)
		o.Profile, o.Metrics = false, nil
		res, err := txsampler.RunWorkload(j.w, o)
		if b.record(-1, fingerprint{}, err, "native") {
			native[i] = res.ElapsedCycles
		}
		res, a, err := txsampler.RunWorkloadWithAccuracy(j.w, b.wl.options(j))
		var fp fingerprint
		if err == nil {
			fp = fingerprint{elapsed: res.ElapsedCycles, total: res.TotalCycles, collectorBytes: res.CollectorBytes}
			if ref := b.refs[i]; ref != nil {
				// The accuracy run is not encoded: only its totals,
				// which observing must not change, are compared.
				fp.digest = ref.digest
			}
		}
		if b.record(i, fp, err, "accuracy") {
			acc.InTx += a.InTx
			acc.TxSamplerCorrect += a.TxSamplerCorrect
			acc.Modes.Merge(&a.Modes)
		}
	}
	profiled := make([]uint64, len(b.jobs))
	var maxCollector int
	for i, ref := range b.refs {
		if ref != nil {
			profiled[i] = ref.elapsed
			maxCollector = max(maxCollector, ref.collectorBytes)
		}
	}
	for k, name := range b.wl.programs {
		var p, nat uint64
		for i := k; i < len(b.jobs); i += n {
			p, nat = p+profiled[i], nat+native[i]
		}
		fmt.Fprintf(b.out, "program %-22s %2d seeds, p50 %9.3f ms over %5d runs, profiled/native elapsed cycles %d/%d\n",
			name, b.wl.seeds, median(perProgram[k]), len(perProgram[k]), p, nat)
	}
	// An error here means a run above failed, and it is counted there.
	overhead, err := geoMeanOverhead(profiled, native)
	if err != nil {
		fmt.Fprintf(b.out, "no overhead: %v\n", err)
	}

	walls := make([]float64, len(runs))
	var sumMs float64
	var sumTotal uint64
	for k, r := range runs {
		walls[k] = r.ms
		sumMs += r.ms
		sumTotal += r.total
	}
	sorted := sortedCopy(walls)
	p, ok := tailPercentile(len(sorted))
	tailNote := fmt.Sprintf("p%g of %d runs", p, len(sorted))
	if !ok {
		tailNote = fmt.Sprintf("p50 of %d runs: too few for a percentile with %d runs beyond it", len(sorted), minBeyond)
	}
	rep.add("run_ms_p50", percentile(sorted, 50), "ms", fmt.Sprintf("p50 of %d runs", len(sorted)))
	rep.add("run_ms_tail", percentile(sorted, p), "ms", tailNote)
	rep.add("sim_mcycles_per_s", ratio(float64(sumTotal)/1e6, sumMs/1e3), "Mcycles/s", "simulated cycles over run wall time")
	rep.add("alloc_mb_per_run", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6, float64(len(runs))), "MB", "Go TotalAlloc over the timed loop")
	rep.add("max_rss_mb", rssMB, "MB", "peak resident set after the timed loop")
	rep.add("profile_overhead_pct", overhead, "%", fmt.Sprintf("Figure 5: geo-mean profiled/native elapsed cycles - 1 over %d (program, seed) jobs", len(profiled)))
	rep.add("ctx_accuracy_pct", 100*ratio(float64(acc.TxSamplerCorrect), float64(acc.InTx)), "%", fmt.Sprintf("%d of %d in-tx samples", acc.TxSamplerCorrect, acc.InTx))
	rep.add("mode_accuracy_pct", 100*acc.Modes.Accuracy(), "%", fmt.Sprintf("%d cycles samples in critical sections", acc.Modes.Total()))
	rep.add("collector_kib_per_thread", float64(maxCollector)/float64(b.wl.threads)/1024, "KiB", fmt.Sprintf("largest over %d (program, seed) jobs", len(b.refs)))
	return nil
}

// layerAcc accumulates the traced runs.
type layerAcc struct {
	runs        int
	dur, self   map[string]int64 // summed per span name
	cpuNs       int64
	waitNs      float64
	totalCycles uint64
	sampleNs    []float64
	counts      tally  // one pass over the run list
	kept        []span // written out at the end
}

func (a *layerAcc) add(tr tracedRun, firstRound bool) {
	a.runs++
	self := selfTimes(tr.spans)
	for i, s := range tr.spans {
		a.dur[s.Name] += s.End - s.Start
		a.self[s.Name] += self[i]
		if s.Name == "core.handle_sample" {
			a.sampleNs = append(a.sampleNs, float64(s.End-s.Start))
			// Handler spans are kept for one round only: there
			// are hundreds per run, and one round shows their shape.
			if !firstRound {
				continue
			}
		}
		a.kept = append(a.kept, s)
	}
	a.cpuNs += tr.cpuNs
	a.waitNs += tr.waitNs
	a.totalCycles += tr.fp.total
	if firstRound {
		a.counts.add(tr.counts)
	}
}

// perLayer runs each job untraced and then traced. The untraced runs
// give the reference outputs and the untraced simulation speed; pairing
// them keeps a drift in host speed out of the tracing-overhead
// comparison.
func (b *bench) perLayer(rep *report, spansDir string) error {
	var refWall time.Duration
	var refTotal uint64
	a := &layerAcc{dur: map[string]int64{}, self: map[string]int64{}, counts: tally{}}
	base := time.Now()
	gc0, busy0 := b.probe.gcCPU()
	b.loop(b.budget, func(round, i int, j job) {
		wall, fp, err := untraced(b.wl, j)
		if b.record(i, fp, err, "untraced reference") {
			refWall += wall
			refTotal += fp.total
		}
		tr, err := traced(b.wl, j, a.runs, base, b.probe)
		if b.record(i, tr.fp, err, "traced") {
			a.add(tr, round == 0)
		}
	})
	gc1, busy1 := b.probe.gcCPU()
	b.timedRuns = a.runs
	if a.runs == 0 {
		return fmt.Errorf("no traced run succeeded")
	}

	perRunMs := func(name string, self bool) float64 {
		v := a.dur[name]
		if self {
			v = a.self[name]
		}
		return float64(v) / 1e6 / float64(a.runs)
	}
	c := a.counts
	cnt := func(name string) float64 { return float64(c[name]) }
	samples := sortedCopy(a.sampleNs)
	p, _ := tailPercentile(len(samples))

	rep.add("machine.run_ms", perRunMs("machine.run", false), "ms", "mean per run")
	rep.add("machine.self_ms", perRunMs("machine.run", true), "ms", "machine.run minus handler calls")
	rep.add("machine.self_ns_per_simkcycle", ratio(float64(a.self["machine.run"]), float64(a.totalCycles)/1e3), "ns/kcycle", "")
	rep.add("machine.go_sched_wait_ms", a.waitNs/1e6/float64(a.runs), "ms", "runnable wait summed over goroutines during machine.run, runtime-sampled")
	rep.add("machine.cpu_per_wall", ratio(float64(a.cpuNs), float64(a.dur["machine.run"])), "ratio", "process CPU over machine.run wall")
	rep.add("machine.sim_cycles_elapsed", cnt("machine.sim_cycles_elapsed"), "cycles", "one pass over the run list")
	rep.add("machine.sim_cycles_total", cnt("machine.sim_cycles_total"), "cycles", "")
	rep.add("machine.interrupts", cnt("machine.interrupts"), "count", "")
	rep.add("htmbench.build_ms", perRunMs("htmbench.build", false), "ms", "machine.New + BuildInstance")
	accesses := cnt("cache.hits") + cnt("cache.misses")
	rep.add("cache.accesses", accesses, "count", "")
	rep.add("cache.miss_ratio", ratio(cnt("cache.misses"), accesses), "ratio", "")
	rep.add("cache.invalidations", cnt("cache.invalidations"), "count", "")
	rep.add("cache.evictions", cnt("cache.evictions"), "count", "")
	rep.add("htm.commits", cnt("htm.commits"), "count", "")
	for _, cause := range abortCauses {
		rep.add("htm.aborts."+cause.String(), cnt("htm.aborts."+cause.String()), "count", "")
	}
	rep.add("htm.commit_ratio", ratio(cnt("htm.commits"), cnt("htm.commits")+cnt("htm.aborts.all")), "ratio", "commits over attempts")
	rep.add("core.samples", cnt("core.samples"), "count", "")
	rep.add("core.handler_ms", perRunMs("core.handle_sample", false), "ms", "summed handler time per run")
	rep.add("core.handle_sample_us_p50", percentile(samples, 50)/1e3, "us", fmt.Sprintf("of %d calls", len(samples)))
	rep.add("core.handle_sample_us_tail", percentile(samples, p)/1e3, "us", fmt.Sprintf("p%g of %d calls", p, len(samples)))
	rep.add("core.pathcache_hit_ratio", ratio(cnt("core.pathcache.hits"), cnt("core.pathcache.hits")+cnt("core.pathcache.misses")), "ratio", "")
	rep.add("core.cct_nodes", cnt("core.cct_nodes"), "count", "")
	rep.add("lbr.truncated_paths", cnt("lbr.truncated_paths"), "count", "")
	rep.add("lbr.unresolved", cnt("lbr.unresolved"), "count", "")
	rep.add("shadow.entries", cnt("shadow.entries"), "count", "")
	for _, k := range []string{"fallbacks", "lock_busy", "stm_commits", "stm_aborts", "stm_fallbacks"} {
		rep.add("rtm."+k, cnt("rtm."+k), "count", "global lock, exact")
	}
	rep.add("rtm.stm_commit_ratio", ratio(cnt("rtm.stm_commits"), cnt("rtm.stm_commits")+cnt("rtm.stm_aborts")), "ratio", "")
	for m := rtm.Mode(0); m < rtm.NumModes; m++ {
		rep.add("rtm.share."+m.String(), ratio(cnt("mode."+m.String()), cnt("mode.all")), "ratio", "sampled share of cycles samples")
	}
	rep.add("pmem.persist_share", ratio(cnt("pmem.persist"), cnt("pmem.cs")), "ratio", "persist samples over critical-section samples")
	rep.add("analyzer.analyze_ms", perRunMs("analyzer.analyze", false), "ms", "")
	rep.add("analyzer.merged_nodes", cnt("analyzer.merged_nodes"), "count", "")
	rep.add("decision.evaluate_us", perRunMs("decision.evaluate", false)*1e3, "us", "")
	rep.add("profile.encode_ms", perRunMs("profile.encode", false), "ms", "")
	rep.add("profile.decode_ms", perRunMs("profile.decode", false), "ms", "")
	rep.add("profile.db_kib", cnt("profile.db_bytes")/1024, "KiB", "")
	rep.add("viewer.render_ms", perRunMs("viewer.render", false), "ms", "")
	rep.add("go.gc_cpu_pct", 100*ratio(gc1-gc0, busy1-busy0), "%", "GC share of busy CPU over the loop")

	b.coverage(a, refTotal, refWall)
	return writeSpans(filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", b.wl.name, b.seed)), a.kept)
}

// coverage prints how much of the traced run wall time the layer
// spans explain, and what tracing costs.
func (b *bench) coverage(a *layerAcc, refTotal uint64, refWall time.Duration) {
	wall := a.dur["run"]
	var parts []string
	for _, name := range []string{"htmbench.build", "machine.run", "core.handle_sample", "check", "analyzer.analyze",
		"decision.evaluate", "profile.encode", "profile.decode", "viewer.render"} {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", name, 100*ratio(float64(a.self[name]), float64(wall))))
	}
	unexplained := a.self["run"]
	fmt.Fprintf(b.out, "coverage %s: span self times explain %.1f ms of %.1f ms run wall (%.2f%%), unexplained %.1f ms (%.2f%%)\n",
		b.wl.name, float64(wall-unexplained)/1e6, float64(wall)/1e6, 100*ratio(float64(wall-unexplained), float64(wall)),
		float64(unexplained)/1e6, 100*ratio(float64(unexplained), float64(wall)))
	fmt.Fprintf(b.out, "coverage %s: self shares: %s\n", b.wl.name, strings.Join(parts, ", "))
	untracedRate := ratio(float64(refTotal)/1e6, refWall.Seconds())
	tracedRate := ratio(float64(a.totalCycles)/1e6, float64(wall)/1e9)
	fmt.Fprintf(b.out, "coverage %s: tracing overhead: sim_mcycles_per_s %.2f traced vs %.2f untraced (%+.2f%%)\n",
		b.wl.name, tracedRate, untracedRate, 100*(ratio(untracedRate, tracedRate)-1))
	fmt.Fprintf(b.out, "coverage %s: cache, htm, rtm and pmem host time is inside machine.self_ms; spans inside the program do not exist yet\n", b.wl.name)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints each metric by name with its unit as it is added and
// collects it for the result line.
type report struct {
	out     io.Writer
	metrics map[string]metricValue
	err     error
}

func (r *report) add(name string, v float64, unit, note string) {
	switch {
	case !validName(name):
		r.err = fmt.Errorf("invalid metric name %q", name)
	case math.IsNaN(v) || math.IsInf(v, 0):
		r.err = fmt.Errorf("metric %s is %v", name, v)
	}
	fmt.Fprintf(r.out, "  %-30s %14.6g %-9s %s\n", name, v, unit, note)
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuModel names the host CPU for the provenance line.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
