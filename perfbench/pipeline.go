package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"time"

	"txsampler"
	"txsampler/internal/analyzer"
	"txsampler/internal/core"
	"txsampler/internal/decision"
	"txsampler/internal/htm"
	"txsampler/internal/htmbench"
	"txsampler/internal/machine"
	"txsampler/internal/profile"
	"txsampler/internal/rtm"
	"txsampler/internal/telemetry"
	"txsampler/internal/viewer"
)

// fingerprint is what must repeat exactly for one (program, seed):
// the profile database bytes and the run's deterministic totals.
type fingerprint struct {
	digest         [sha256.Size]byte
	elapsed, total uint64
	collectorBytes int
}

// untraced runs one profiled program the way `txsampler -o db.json`
// followed by `txsampler -view db.json` does: txsampler.RunWorkload
// with a metrics registry (it checks the program's result), then the
// database is encoded to memory, decoded and rendered as text.
func untraced(wl workload, j job) (time.Duration, fingerprint, error) {
	start := time.Now()
	res, err := txsampler.RunWorkload(j.w, wl.options(j))
	if err != nil {
		return 0, fingerprint{}, err
	}
	var buf bytes.Buffer
	if err := profile.FromReport(res.Report).Write(&buf); err != nil {
		return 0, fingerprint{}, fmt.Errorf("%s: encode profile: %w", j.w.Name, err)
	}
	db, err := profile.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return 0, fingerprint{}, fmt.Errorf("%s: decode profile: %w", j.w.Name, err)
	}
	render(db.Report())
	wall := time.Since(start)
	return wall, fingerprint{
		digest: sha256.Sum256(buf.Bytes()), elapsed: res.ElapsedCycles,
		total: res.TotalCycles, collectorBytes: res.CollectorBytes,
	}, nil
}

// render is the text a user reads: what `txsampler -view` prints.
func render(r *analyzer.Report) {
	r.Render(io.Discard)
	viewer.Tree(io.Discard, r, viewer.TreeOptions{})
	viewer.Histogram(io.Discard, r)
	viewer.DataQuality(io.Discard, r)
	viewer.SelfReport(io.Discard, r)
}

// timedHandler wraps the collector to time every sample delivery. It
// keeps one interval list per simulated thread: each thread is one
// goroutine, so the lists need no lock whatever the scheduler does.
type timedHandler struct {
	col    *core.Collector
	base   time.Time
	perTID [][][2]int64
}

func (h *timedHandler) HandleSample(s *machine.Sample) {
	start := int64(time.Since(h.base))
	h.col.HandleSample(s)
	end := int64(time.Since(h.base))
	if s != nil && s.TID >= 0 && s.TID < len(h.perTID) {
		h.perTID[s.TID] = append(h.perTID[s.TID], [2]int64{start, end})
	}
}

// tracedRun is the outcome of one traced run.
type tracedRun struct {
	fp     fingerprint
	spans  []span
	cpuNs  int64   // process CPU time during machine.run
	waitNs float64 // runtime scheduling latency during machine.run
	counts tally
}

// traced runs the same pipeline as untraced, but calls each layer's
// public functions itself (as txsampler.RunWorkload does) so it can
// record a span around each. It never sets Config.Trace or Quantum: 1,
// which would switch the machine to the serial scheduler and observe a
// different run; the profile bytes are checked against untraced runs.
func traced(wl workload, j job, run int, base time.Time, probe *hostProbe) (tracedRun, error) {
	o := wl.options(j)
	var tr tracedRun
	now := func() int64 { return int64(time.Since(base)) }
	open := func(name string, parent int) int {
		tr.spans = append(tr.spans, span{Run: run, ID: len(tr.spans), Parent: parent, Name: name, Start: now()})
		return len(tr.spans) - 1
	}
	closeSpan := func(i int) { tr.spans[i].End = now() }

	root := open("run", -1)
	sp := open("htmbench.build", root)
	cfg := machine.Config{
		Threads: o.Threads, Cache: txsampler.BenchCache(), Seed: o.Seed,
		StartSkew: 1024, Periods: txsampler.DefaultPeriods(),
		Pmem: o.Pmem, Hybrid: o.Hybrid, Elision: o.Elision,
	}
	if err := cfg.Validate(); err != nil {
		return tr, fmt.Errorf("%s: %w", j.w.Name, err)
	}
	m := machine.New(cfg)
	col := core.NewCollector(cfg.Threads, cfg.Periods, 0)
	h := &timedHandler{col: col, base: base, perTID: make([][][2]int64, cfg.Threads)}
	m.SetHandler(h)
	inst := j.w.BuildInstance(m, nil)
	closeSpan(sp)

	sp = open("machine.run", root)
	cpu0, wait0 := probe.cpuNs(), probe.schedWaitNs()
	runStart := time.Now()
	err := m.Run(inst.Bodies...)
	runWall := time.Since(runStart)
	tr.cpuNs, tr.waitNs = probe.cpuNs()-cpu0, probe.schedWaitNs()-wait0
	closeSpan(sp)
	for _, ivs := range h.perTID {
		for _, iv := range ivs {
			tr.spans = append(tr.spans, span{Run: run, ID: len(tr.spans), Parent: sp, Name: "core.handle_sample", Start: iv[0], End: iv[1]})
		}
	}
	if err != nil {
		return tr, fmt.Errorf("%s: %w", j.w.Name, err)
	}

	sp = open("check", root)
	if inst.Check != nil {
		if err := inst.Check(m); err != nil {
			return tr, fmt.Errorf("%s: result check failed: %w", j.w.Name, err)
		}
	}
	closeSpan(sp)

	sp = open("analyzer.analyze", root)
	rep := analyzer.AnalyzeInstrumented(j.w.Name, col, nil, o.Metrics)
	rep.Quality.Injected = m.FaultStats()
	closeSpan(sp)

	sp = open("decision.evaluate", root)
	decision.Evaluate(rep, o.Thresholds)
	closeSpan(sp)

	m.PublishMetrics(o.Metrics)
	col.PublishMetrics(o.Metrics)
	o.Metrics.Gauge("run.wall_ns", true).Set(uint64(runWall))
	rep.Self = o.Metrics.Snapshot(true)

	sp = open("profile.encode", root)
	var buf bytes.Buffer
	err = profile.FromReport(rep).Write(&buf)
	closeSpan(sp)
	if err != nil {
		return tr, fmt.Errorf("%s: encode profile: %w", j.w.Name, err)
	}

	sp = open("profile.decode", root)
	db, err := profile.Read(bytes.NewReader(buf.Bytes()))
	closeSpan(sp)
	if err != nil {
		return tr, fmt.Errorf("%s: decode profile: %w", j.w.Name, err)
	}

	sp = open("viewer.render", root)
	render(db.Report())
	closeSpan(sp)
	closeSpan(root)

	tr.fp = fingerprint{
		digest: sha256.Sum256(buf.Bytes()), elapsed: m.Elapsed(),
		total: m.TotalCycles(), collectorBytes: col.MemoryFootprint(),
	}
	tr.counts = countsOf(m, col, rep, inst, o.Metrics, buf.Len())
	return tr, nil
}

// tally sums named deterministic counts over one pass of a run list.
type tally map[string]uint64

func (t tally) add(o tally) {
	for k, v := range o {
		t[k] += v
	}
}

// modeCounts maps each rtm.Mode to its cycles-sample count in the
// report totals. The elided counters refine their base buckets, so
// they are subtracted from them; the ten counts sum to W.
func modeCounts(t core.Metrics) [rtm.NumModes]uint64 {
	var c [rtm.NumModes]uint64
	c[rtm.ModeNone] = t.W - t.T
	c[rtm.ModeHTM] = t.Ttx - t.TelideHtm
	c[rtm.ModeSTM] = t.Tstm - t.TelideStm
	c[rtm.ModeLock] = t.Tfb - t.TelideLock
	c[rtm.ModeWaiting] = t.Twait
	c[rtm.ModeOverhead] = t.Toh
	c[rtm.ModeFlush] = t.Tpersist
	c[rtm.ModeElidedHTM] = t.TelideHtm
	c[rtm.ModeElidedSTM] = t.TelideStm
	c[rtm.ModeElidedLock] = t.TelideLock
	return c
}

// countsOf reads the layers' public counters after one run.
func countsOf(m *machine.Machine, col *core.Collector, rep *analyzer.Report, inst *htmbench.Instance, metrics *telemetry.Registry, dbBytes int) tally {
	reg := func(name string) uint64 { return metrics.Counter(name).Value() }
	gt := m.GroundTruth()
	st := inst.Lock.Stats
	c := tally{
		"machine.sim_cycles_elapsed": m.Elapsed(),
		"machine.sim_cycles_total":   m.TotalCycles(),
		"machine.interrupts":         reg("machine.interrupts"),
		"cache.hits":                 m.Caches.Hits,
		"cache.misses":               m.Caches.Misses,
		"cache.invalidations":        m.Caches.Invalidations,
		"cache.evictions":            m.Caches.Evictions,
		"htm.commits":                gt.Commits,
		"core.samples":               reg("collector.samples.ingested"),
		"core.pathcache.hits":        reg("collector.pathcache.hits"),
		"core.pathcache.misses":      reg("collector.pathcache.misses"),
		"lbr.truncated_paths":        reg("collector.paths.truncated"),
		"lbr.unresolved":             reg("collector.lbr.unresolved"),
		"shadow.entries":             uint64(col.Shadow.Footprint()),
		"rtm.fallbacks":              st.Fallbacks,
		"rtm.lock_busy":              st.LockBusy,
		"rtm.stm_commits":            st.StmCommits,
		"rtm.stm_aborts":             st.StmAborts,
		"rtm.stm_fallbacks":          st.StmFallbacks,
		"pmem.persist":               rep.Totals.Tpersist,
		"pmem.cs":                    rep.Totals.T,
		"analyzer.merged_nodes":      uint64(rep.Merged.Size()),
		"profile.db_bytes":           uint64(dbBytes),
		"mode.all":                   rep.Totals.W,
	}
	for _, p := range col.Profiles() {
		c["core.cct_nodes"] += uint64(p.Tree.Size())
	}
	for cause, n := range gt.Aborts {
		c["htm.aborts."+cause.String()] += n
		c["htm.aborts.all"] += n
	}
	for mode, n := range modeCounts(rep.Totals) {
		c["mode."+rtm.Mode(mode).String()] = n
	}
	return c
}

// abortCauses are the causes reported per layer, by name.
var abortCauses = []htm.Cause{htm.Conflict, htm.Capacity, htm.Sync, htm.Interrupt}

// errMismatch marks a run whose outputs differ from an earlier run of
// the same (program, seed).
var errMismatch = errors.New("output differs from an earlier run of the same (program, seed)")
