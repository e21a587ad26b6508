// Package core implements TxSampler's online data collector — the
// paper's primary contribution. It receives PMU samples from the
// machine and, observing only what a real profiler can (the precise
// IP, the frozen LBR, the RTM library state word, and the rolled-back
// call stack), builds per-thread calling-context-tree profiles with:
//
//   - time decomposition: W = T + S, T = Ttx + Tfb + Twait + Toh
//     (paper §4, computed per Figure 4's classification);
//   - abort penalty metrics: sampled abort counts and weights by
//     cause, including capacity read/write splits (paper §5);
//   - contention metrics: per-thread commit/abort balance and
//     true/false-sharing classification through shadow memory
//     (paper §3.3, §5);
//   - full calling contexts even inside transactions, reconstructed
//     by concatenating the unwound stack with the LBR-derived
//     in-transaction suffix under a begin_in_tx pseudo-node
//     (paper §3.4, Figure 3).
package core

import (
	"fmt"

	"txsampler/internal/cct"
	"txsampler/internal/faults"
	"txsampler/internal/htm"
	"txsampler/internal/lbr"
	"txsampler/internal/machine"
	"txsampler/internal/pmu"
	"txsampler/internal/rtm"
	"txsampler/internal/shadow"
	"txsampler/internal/telemetry"
)

// BeginInTx is the pseudo-frame the collector inserts between the
// unwound prefix and the LBR-reconstructed in-transaction suffix, as
// in the paper's GUI ("begin_in_tx", Figure 9).
var BeginInTx = lbr.IP{Fn: "begin_in_tx"}

// Metrics is the per-context metric payload. Time metrics count
// cycles-event samples; multiply by the cycles sampling period to
// estimate cycles (the analyzer does this).
type Metrics struct {
	// Figure 4 time decomposition, in cycles samples. Tstm extends
	// the paper's four-way split with the hybrid-TM software slow
	// path: samples whose state word carries rtm.InSTM — instrumented
	// execution, the numerator of the per-path instrumentation
	// overhead metric (Tstm ÷ Ttx).
	W     uint64 // work: every cycles sample
	T     uint64 // samples inside critical sections
	Ttx   uint64 // … in the transaction path (LBR abort bit)
	Tstm  uint64 // … in the instrumented software-transaction path
	Tfb   uint64 // … in the fallback path
	Twait uint64 // … waiting for the global lock
	Toh   uint64 // … in transaction begin/retry/cleanup overhead

	// Tpersist counts cycles samples in the durable-commit persist
	// epilogue of the pmem tier (rtm.InFlush): flushes, the persist
	// fence, the commit record — persistence stalls. Tagged omitempty
	// so profiles from machines without the pmem tier serialize
	// byte-identically to earlier versions.
	Tpersist uint64 `json:"Tpersist,omitempty"`

	// Elided-lock splits (rtm.InElision): how much of Ttx/Tstm/Tfb
	// was spent inside elided critical sections. Each counter is a
	// refinement of its base bucket, never an addition to it, so the
	// Figure 4 decomposition is unchanged; omitempty keeps profiles
	// from elision-free runs byte-identical to earlier versions.
	TelideHtm  uint64 `json:"TelideHtm,omitempty"`
	TelideStm  uint64 `json:"TelideStm,omitempty"`
	TelideLock uint64 `json:"TelideLock,omitempty"`

	// Abort analysis (paper §5), from RTM_RETIRED:ABORTED samples.
	AbortSamples uint64
	AbortCount   [htm.NumCauses]uint64 // sampled aborts by cause
	AbortWeight  [htm.NumCauses]uint64 // aggregate abort weight by cause
	CapReadW     uint64                // capacity abort weight, read overflow
	CapWriteW    uint64                // capacity abort weight, write overflow

	// ConflictTx and ConflictNonTx split sampled conflict aborts by
	// whether the conflicting access was itself transactional — the
	// finer abort-cause granularity of POWER-style status codes
	// (paper §10). Non-transactional conflicts usually point at the
	// fallback lock (serialization cascades).
	ConflictTx    uint64
	ConflictNonTx uint64

	// Commit samples (RTM_RETIRED:COMMIT).
	CommitSamples uint64

	// Contention classification of sampled loads/stores (§3.3).
	MemSamples   uint64
	TrueSharing  uint64
	FalseSharing uint64

	// Truncated counts in-transaction reconstructions that lost a
	// path prefix to LBR overflow (§3.4).
	Truncated uint64
}

// Merge accumulates src into m; used for cross-thread coalescing.
func (m *Metrics) Merge(src *Metrics) {
	m.W += src.W
	m.T += src.T
	m.Ttx += src.Ttx
	m.Tstm += src.Tstm
	m.Tfb += src.Tfb
	m.Twait += src.Twait
	m.Toh += src.Toh
	m.Tpersist += src.Tpersist
	m.TelideHtm += src.TelideHtm
	m.TelideStm += src.TelideStm
	m.TelideLock += src.TelideLock
	m.AbortSamples += src.AbortSamples
	for i := range m.AbortCount {
		m.AbortCount[i] += src.AbortCount[i]
		m.AbortWeight[i] += src.AbortWeight[i]
	}
	m.CapReadW += src.CapReadW
	m.CapWriteW += src.CapWriteW
	m.ConflictTx += src.ConflictTx
	m.ConflictNonTx += src.ConflictNonTx
	m.CommitSamples += src.CommitSamples
	m.MemSamples += src.MemSamples
	m.TrueSharing += src.TrueSharing
	m.FalseSharing += src.FalseSharing
	m.Truncated += src.Truncated
}

// AppAborts returns the sampled abort count excluding ambient aborts
// (profiler-induced interrupts and spurious machine noise) that say
// nothing about the application.
func (m *Metrics) AppAborts() uint64 {
	var n uint64
	for c, v := range m.AbortCount {
		if !htm.Cause(c).Ambient() {
			n += v
		}
	}
	return n
}

// DataQuality summarizes how trustworthy a profile is: how much data
// the machine injected faults into or lost before delivery, and how
// many malformed or internally inconsistent samples the collector had
// to degrade around. A clean, fault-free run reports all zeros except
// possibly TruncatedPaths (LBR overflow on deep in-transaction call
// paths is a real hardware limit, not a fault).
type DataQuality struct {
	// Injected aggregates the machine's fault-injection counters;
	// all-zero when no fault plan was configured. Frontends fill it
	// from machine.FaultStats after the run.
	Injected faults.Stats `json:"injected"`

	// Collector-side degradation evidence.

	// MalformedSamples counts samples missing required payload (an
	// abort sample without an abort record, an out-of-range thread)
	// that were dropped rather than crashing the collector.
	MalformedSamples uint64 `json:"malformed_samples"`
	// UnresolvedInTx counts abort samples whose LBR no longer carried
	// the abort-bit evidence, so the in-transaction calling context
	// could not be rebuilt and the sample was attributed to the
	// unwound stack only.
	UnresolvedInTx uint64 `json:"unresolved_in_tx"`
	// InconsistentState counts samples whose RTM state word
	// contradicts hardware evidence (e.g. claims an uncommitted
	// transaction is still live inside a PMU handler).
	InconsistentState uint64 `json:"inconsistent_state"`
	// TruncatedPaths counts in-transaction reconstructions that lost
	// a path prefix to LBR capacity (also possible in clean runs).
	TruncatedPaths uint64 `json:"truncated_paths"`
}

// Merge accumulates src into q.
func (q *DataQuality) Merge(src DataQuality) {
	q.Injected.Merge(src.Injected)
	q.MalformedSamples += src.MalformedSamples
	q.UnresolvedInTx += src.UnresolvedInTx
	q.InconsistentState += src.InconsistentState
	q.TruncatedPaths += src.TruncatedPaths
}

// Degraded returns the total count of strictly fault-driven
// degradation events: non-zero exactly when faults corrupted or lost
// data. TruncatedPaths is excluded because LBR overflow also happens
// on fault-free runs.
func (q DataQuality) Degraded() uint64 {
	return q.Injected.Total() + q.MalformedSamples + q.UnresolvedInTx + q.InconsistentState
}

// Tree is the collector's calling context tree type, and Node its
// node type.
type (
	Tree = cct.Tree[Metrics]
	Node = cct.Node[Metrics]
)

// Profile is one thread's profile.
type Profile struct {
	TID     int
	Tree    *Tree
	Totals  Metrics // aggregate over all contexts
	Samples uint64  // samples of any event

	// paths hash-conses derived calling contexts: repeated samples on
	// the same (stack, LBR, IP) resolve to their CCT node without
	// re-running the Figure 3 reconstruction or re-walking the tree.
	// Keyed by FNV hash with full equality verification on hit.
	paths     map[uint64][]cachedPath
	pathCount int

	// Self-telemetry counters (plain: the machine's scheduler gates
	// sample delivery, so one thread delivers at a time), published
	// via PublishMetrics.
	cacheHits    uint64 // path-cache lookups resolved without rebuild
	cacheMisses  uint64 // lookups that re-ran the reconstruction
	inTxResolved uint64 // in-tx contexts rebuilt from LBR evidence
}

// cachedPath memoizes one derived calling context. The stored slices
// alias the sample's (the machine never mutates a sample after
// delivery), so a cache entry costs two slice headers, not a copy.
type cachedPath struct {
	stack     []lbr.IP
	lbr       []lbr.Entry // nil unless the sample carried abort evidence
	ip        lbr.IP
	inTx      bool
	truncated bool
	node      *Node
}

// pathCacheLimit bounds the per-thread path cache. The flush is
// count-based, so it is deterministic for a given sample stream.
const pathCacheLimit = 65536

// Collector is the TxSampler online data collector. Install it as the
// machine's sample handler before running. It is not safe for use by
// multiple machines at once.
type Collector struct {
	periods  pmu.Periods
	profiles []*Profile
	quality  DataQuality
	// Shadow memory is shared across threads: contention is by
	// definition a cross-thread phenomenon.
	Shadow *shadow.Memory
}

// NewCollector returns a collector for n threads sampling with the
// given periods. contentionWindow is the shadow-memory threshold P in
// cycles (0 = default).
func NewCollector(n int, periods pmu.Periods, contentionWindow uint64) *Collector {
	c := &Collector{periods: periods, Shadow: shadow.New(contentionWindow)}
	for i := 0; i < n; i++ {
		c.profiles = append(c.profiles, &Profile{TID: i, Tree: cct.NewTree[Metrics]()})
	}
	return c
}

// Attach creates a collector matching a machine's configuration and
// installs it as the machine's sample handler.
func Attach(m *machine.Machine) *Collector {
	cfg := m.Config()
	c := NewCollector(cfg.Threads, cfg.Periods, 0)
	m.SetHandler(c)
	return c
}

// Profiles returns the per-thread profiles.
func (c *Collector) Profiles() []*Profile { return c.profiles }

// Reordered returns a read-only view of the collector whose per-thread
// profiles appear in the order perm[0], perm[1], ... — the validation
// harness analyzes it to check that cross-thread profile coalescing is
// order-independent (a thread-permutation metamorphic invariant). perm
// must be a permutation of [0, threads); the view shares the
// underlying profile trees, so it must not receive further samples.
func (c *Collector) Reordered(perm []int) *Collector {
	if len(perm) != len(c.profiles) {
		panic(fmt.Sprintf("core: Reordered with %d indices for %d profiles", len(perm), len(c.profiles)))
	}
	seen := make([]bool, len(perm))
	nc := &Collector{periods: c.periods, quality: c.quality, Shadow: c.Shadow}
	for _, i := range perm {
		if i < 0 || i >= len(c.profiles) || seen[i] {
			panic(fmt.Sprintf("core: Reordered permutation %v is not a permutation", perm))
		}
		seen[i] = true
		nc.profiles = append(nc.profiles, c.profiles[i])
	}
	return nc
}

// Periods returns the sampling periods the collector assumes.
func (c *Collector) Periods() pmu.Periods { return c.periods }

// Quality returns the collector-side data-quality counters (Injected
// is zero here; frontends merge machine.FaultStats into it).
func (c *Collector) Quality() DataQuality { return c.quality }

// context derives the sample's calling context. For a sample that
// aborted a transaction (LBR abort bit on the top entry) it
// concatenates the unwound — rolled-back — stack, the begin_in_tx
// pseudo-frame, and the LBR-reconstructed suffix; otherwise the
// unwound stack already ends at the precise IP.
func (c *Collector) context(s *machine.Sample) (frames []lbr.IP, inTx, truncated bool) {
	stack := s.Stack
	if len(stack) == 0 {
		// A real unwinder can fail (corrupt frame pointers, signal on
		// a bare stack); attribute to a placeholder rather than crash.
		stack = []lbr.IP{{Fn: "unknown"}}
	}
	inTx = len(s.LBR) > 0 && s.LBR[0].Abort
	if !inTx {
		return stack, false, false
	}
	suffix, trunc := cct.InTxPath(s.LBR)
	// The precise IP refines the deepest frame: same function means
	// the sample adds the site label; a different function (possible
	// when the suffix is empty or truncated) appends a leaf.
	switch {
	case len(suffix) > 0 && suffix[len(suffix)-1].Fn == s.IP.Fn:
		suffix[len(suffix)-1] = s.IP
	default:
		suffix = append(suffix, s.IP)
	}
	frames = append(append(append([]lbr.IP{}, stack...), BeginInTx), suffix...)
	return frames, true, trunc
}

// contextNode resolves the sample's CCT node, memoizing the
// derivation: the node (and the inTx/truncated classification) is a
// pure function of (stack, LBR, IP), and hot call paths repeat across
// thousands of samples. Samples with an empty stack take the uncached
// placeholder path.
func (c *Collector) contextNode(p *Profile, s *machine.Sample) (node *Node, inTx, truncated bool) {
	if len(s.Stack) == 0 {
		frames, inTx, trunc := c.context(s)
		return p.Tree.Path(frames), inTx, trunc
	}
	evidence := len(s.LBR) > 0 && s.LBR[0].Abort
	h := lbr.HashIPs(lbr.HashSeed, s.Stack)
	if evidence {
		// Out-of-transaction contexts are the unwound stack alone; the
		// LBR and precise IP only matter under the abort-evidence path.
		h = lbr.HashIP(lbr.HashEntries(h, s.LBR), s.IP)
	}
	for i := range p.paths[h] {
		e := &p.paths[h][i]
		if e.inTx != evidence || !ipsEqual(e.stack, s.Stack) {
			continue
		}
		if evidence && (e.ip != s.IP || !entriesEqual(e.lbr, s.LBR)) {
			continue
		}
		p.cacheHits++
		return e.node, e.inTx, e.truncated
	}
	p.cacheMisses++
	frames, inTx, truncated := c.context(s)
	node = p.Tree.Path(frames)
	if p.pathCount >= pathCacheLimit {
		p.paths, p.pathCount = nil, 0
	}
	if p.paths == nil {
		p.paths = make(map[uint64][]cachedPath)
	}
	// Copy the key slices: the machine reuses the sample's backing
	// arrays for the next delivery, but cache entries live on.
	entry := cachedPath{
		stack: append([]lbr.IP(nil), s.Stack...),
		ip:    s.IP, inTx: inTx, truncated: truncated, node: node,
	}
	if evidence {
		entry.lbr = append([]lbr.Entry(nil), s.LBR...)
	}
	p.paths[h] = append(p.paths[h], entry)
	p.pathCount++
	return node, inTx, truncated
}

func ipsEqual(a, b []lbr.IP) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func entriesEqual(a, b []lbr.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// HandleSample implements machine.SampleHandler with the paper's
// Figure 4 algorithm plus the abort, commit, and contention analyses.
func (c *Collector) HandleSample(s *machine.Sample) {
	if s == nil || s.TID < 0 || s.TID >= len(c.profiles) {
		// A sample the machine could never have produced; drop it
		// rather than index out of range.
		c.quality.MalformedSamples++
		return
	}
	p := c.profiles[s.TID]
	p.Samples++
	if s.Event == pmu.TxAbort && rtm.IsInHTM(s.State) {
		// An abort sample's state word is the rolled-back snapshot
		// from XBEGIN, which can never carry the InHTM bit — the
		// transactional update that set it was just discarded (§3.2).
		// Seeing it means the state word is corrupt; classification
		// proceeds but the profile is flagged. (Samples on the commit
		// path may legitimately show InHTM: XEND makes the update
		// durable and software clears it shortly after.)
		c.quality.InconsistentState++
	}
	node, inTx, truncated := c.contextNode(p, s)
	if inTx {
		p.inTxResolved++
	}
	m := &node.Data
	if truncated {
		m.Truncated++
		p.Totals.Truncated++
		c.quality.TruncatedPaths++
	}

	switch s.Event {
	case pmu.Cycles:
		// Figure 4: always accumulate work; classify within the
		// critical section by state word and LBR abort bit.
		m.W++
		p.Totals.W++
		if rtm.IsInCS(s.State) {
			m.T++
			p.Totals.T++
			elided := rtm.IsInElision(s.State)
			switch {
			case inTx:
				m.Ttx++
				p.Totals.Ttx++
				if elided {
					m.TelideHtm++
					p.Totals.TelideHtm++
				}
			case rtm.IsInFlush(s.State):
				m.Tpersist++
				p.Totals.Tpersist++
			case rtm.IsInSTM(s.State):
				m.Tstm++
				p.Totals.Tstm++
				if elided {
					m.TelideStm++
					p.Totals.TelideStm++
				}
			case rtm.IsInFallback(s.State):
				m.Tfb++
				p.Totals.Tfb++
				if elided {
					m.TelideLock++
					p.Totals.TelideLock++
				}
			case rtm.IsInLockWaiting(s.State):
				m.Twait++
				p.Totals.Twait++
			default:
				m.Toh++
				p.Totals.Toh++
			}
		}

	case pmu.TxAbort:
		if s.Abort == nil {
			// An RTM_RETIRED:ABORTED sample must carry an abort
			// record; without one nothing can be classified.
			c.quality.MalformedSamples++
			return
		}
		if !inTx {
			// A clean rollback always records the abort branch as the
			// youngest LBR entry before the PMI freezes the buffer, so
			// an abort sample without it means the LBR was corrupted
			// or truncated: the in-transaction context is lost and the
			// sample was attributed to the unwound stack only.
			c.quality.UnresolvedInTx++
		}
		cause := s.Abort.Cause
		if cause >= htm.NumCauses {
			c.quality.MalformedSamples++
			return
		}
		m.AbortSamples++
		p.Totals.AbortSamples++
		m.AbortCount[cause]++
		p.Totals.AbortCount[cause]++
		m.AbortWeight[cause] += s.Abort.Weight
		p.Totals.AbortWeight[cause] += s.Abort.Weight
		if cause == htm.Conflict {
			if s.Abort.AbortedByTx {
				m.ConflictTx++
				p.Totals.ConflictTx++
			} else {
				m.ConflictNonTx++
				p.Totals.ConflictNonTx++
			}
		}
		if cause == htm.Capacity {
			switch s.Abort.CapKind {
			case htm.CapacityRead:
				m.CapReadW += s.Abort.Weight
				p.Totals.CapReadW += s.Abort.Weight
			case htm.CapacityWrite:
				m.CapWriteW += s.Abort.Weight
				p.Totals.CapWriteW += s.Abort.Weight
			}
		}

	case pmu.TxCommit:
		m.CommitSamples++
		p.Totals.CommitSamples++

	case pmu.Loads, pmu.Stores:
		if !s.HasAddr {
			return
		}
		m.MemSamples++
		p.Totals.MemSamples++
		switch c.Shadow.Observe(s.TID, s.Addr, s.IsWrite, s.Time) {
		case shadow.TrueSharing:
			m.TrueSharing++
			p.Totals.TrueSharing++
		case shadow.FalseSharing:
			m.FalseSharing++
			p.Totals.FalseSharing++
		}
	}
}

// PublishMetrics writes the collector's self-telemetry into reg:
// samples ingested, calling-context cache hit rate, LBR in-transaction
// reconstructions resolved vs. failed, degradation counters, CCT size,
// and the per-sample abort-weight distribution. Everything published
// is a deterministic function of the sample stream. A nil registry is
// ignored.
func (c *Collector) PublishMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	var samples, hits, misses, resolved, nodes uint64
	for _, p := range c.profiles {
		samples += p.Samples
		hits += p.cacheHits
		misses += p.cacheMisses
		resolved += p.inTxResolved
		nodes += uint64(p.Tree.Size())
	}
	reg.Counter("collector.samples.ingested").Add(samples)
	reg.Counter("collector.pathcache.hits").Add(hits)
	reg.Counter("collector.pathcache.misses").Add(misses)
	reg.Counter("collector.lbr.resolved").Add(resolved)
	reg.Counter("collector.lbr.unresolved").Add(c.quality.UnresolvedInTx)
	reg.Counter("collector.samples.malformed").Add(c.quality.MalformedSamples)
	reg.Counter("collector.paths.truncated").Add(c.quality.TruncatedPaths)
	reg.Gauge("collector.cct.nodes", false).Set(nodes)
	reg.Gauge("collector.memory.bytes", false).Set(uint64(c.MemoryFootprint()))
	hist := reg.Histogram("collector.abort.weight")
	for _, p := range c.profiles {
		p.Tree.Walk(func(n *Node, _ int) {
			for cause, w := range n.Data.AbortWeight {
				if n.Data.AbortCount[cause] > 0 && w > 0 {
					// One aggregate observation per (context, cause):
					// the mean sampled abort weight there.
					hist.Observe(w / n.Data.AbortCount[cause])
				}
			}
		})
	}
}

// MemoryFootprint estimates the collector's memory use in bytes: CCT
// nodes plus shadow entries. The paper reports <5MB per thread; the
// estimate lets tests and the experiment harness verify the same
// property holds here.
func (c *Collector) MemoryFootprint() int {
	const nodeBytes = 400 // Metrics + node bookkeeping, rounded up
	const shadowBytes = 48
	n := 0
	for _, p := range c.profiles {
		n += p.Tree.Size() * nodeBytes
	}
	return n + c.Shadow.Footprint()*shadowBytes
}
