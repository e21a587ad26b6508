// Package cache models the memory hierarchy the simulated machine runs
// on: one private set-associative L1 cache per core kept coherent by an
// invalidation-based directory (MESI-style, collapsed to the states the
// simulation needs: Modified, Shared, Invalid).
//
// The cache serves two purposes. First, it supplies access latencies,
// so workload timing reflects locality and sharing: a write to a line
// another core holds costs an invalidation round-trip, which is how
// false sharing becomes visible in the cycle counts. Second, its set
// geometry is reused by the HTM engine to decide capacity aborts: a
// transaction whose footprint overflows an L1 set cannot be tracked by
// the hardware, exactly as on Intel TSX.
package cache

import (
	"fmt"

	"txsampler/internal/htm"
	"txsampler/internal/mem"
)

// Config describes the per-core L1 geometry and the latency model.
// All latencies are in cycles.
type Config struct {
	Sets int // number of sets per L1 (power of two)
	Ways int // associativity

	HitLatency    int // L1 hit
	MissLatency   int // fill from memory/LLC
	RemoteLatency int // fill or upgrade requiring another core's copy
}

// DefaultConfig mirrors the paper's evaluation machine closely enough
// for shape: a 64KB 8-way L1 with 64-byte lines (128 sets).
func DefaultConfig() Config {
	return Config{Sets: 128, Ways: 8, HitLatency: 4, MissLatency: 60, RemoteLatency: 90}
}

// Validate reports whether the geometry and latency model are usable.
// The zero Config is rejected; callers treating it as "use defaults"
// must substitute DefaultConfig before validating.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache: Sets %d must be a positive power of two", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: Ways %d must be positive", c.Ways)
	}
	if c.HitLatency < 0 || c.MissLatency < 0 || c.RemoteLatency < 0 {
		return fmt.Errorf("cache: negative latency (hit=%d miss=%d remote=%d)",
			c.HitLatency, c.MissLatency, c.RemoteLatency)
	}
	return nil
}

// SetIndex returns the L1 set a line maps to.
func (c Config) SetIndex(line mem.Addr) int {
	return int(line.LineIndex() % uint64(c.Sets))
}

// LinesPerL1 returns the total line capacity of one L1.
func (c Config) LinesPerL1() int { return c.Sets * c.Ways }

type way struct {
	line  mem.Addr
	valid bool
	dirty bool
	lru   uint64 // last-use tick; larger = more recent
}

type l1 struct {
	sets [][]way
	tick uint64
}

func newL1(cfg Config) *l1 {
	c := &l1{sets: make([][]way, cfg.Sets)}
	for i := range c.sets {
		c.sets[i] = make([]way, cfg.Ways)
	}
	return c
}

// lookup returns the way holding line, or nil.
func (c *l1) lookup(set int, line mem.Addr) *way {
	for i := range c.sets[set] {
		w := &c.sets[set][i]
		if w.valid && w.line == line {
			return w
		}
	}
	return nil
}

// insert places line into set, evicting LRU if needed. Returns the
// evicted line and whether an eviction happened.
func (c *l1) insert(set int, line mem.Addr, dirty bool) (mem.Addr, bool) {
	c.tick++
	victim := &c.sets[set][0]
	for i := range c.sets[set] {
		w := &c.sets[set][i]
		if !w.valid {
			victim = w
			break
		}
		if w.lru < victim.lru {
			victim = w
		}
	}
	evicted, had := victim.line, victim.valid
	*victim = way{line: line, valid: true, dirty: dirty, lru: c.tick}
	return evicted, had
}

func (c *l1) touch(w *way) {
	c.tick++
	w.lru = c.tick
}

func (c *l1) invalidate(set int, line mem.Addr) {
	if w := c.lookup(set, line); w != nil {
		w.valid = false
	}
}

// dirEntry tracks which cores hold a line. owner >= 0 means that core
// has the line Modified; otherwise sharers holds the Shared copies.
type dirEntry struct {
	sharers uint64 // bitmask of cores with a shared copy
	owner   int    // core with modified copy, or -1
}

// AccessResult reports the outcome of one cache access.
type AccessResult struct {
	Latency         int
	Hit             bool
	InvalidatedMask uint64 // bit c: core c's copy was invalidated by this access
	Evicted         bool   // this core's L1 evicted a line to make room
	EvictedLine     mem.Addr
}

// Hierarchy is the full multi-core cache system.
type Hierarchy struct {
	cfg   Config
	cores []*l1
	dir   map[mem.Addr]dirEntry // by value: a miss allocates no entry object

	// Stats, cumulative across all cores.
	Hits, Misses, Invalidations, Evictions uint64
}

// New returns a hierarchy with n private L1 caches.
func New(n int, cfg Config) *Hierarchy {
	if n <= 0 || n > htm.MaxThreads {
		panic(fmt.Sprintf("cache: core count %d out of range [1,%d]", n, htm.MaxThreads))
	}
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	h := &Hierarchy{cfg: cfg, dir: make(map[mem.Addr]dirEntry)}
	for i := 0; i < n; i++ {
		h.cores = append(h.cores, newL1(cfg))
	}
	return h
}

// Config returns the geometry the hierarchy was built with.
func (h *Hierarchy) Config() Config { return h.cfg }

// Access performs a load (write=false) or store (write=true) by core to
// the cache line containing a, updating coherence state, and returns
// the latency and any remote invalidations. The returned
// InvalidatedMask is the set of *other* cores that lost their copy;
// the HTM engine performs its own conflict detection on read/write
// sets.
func (h *Hierarchy) Access(core int, a mem.Addr, write bool) AccessResult {
	line := a.Line()
	set := h.cfg.SetIndex(line)
	c := h.cores[core]
	e, ok := h.dir[line]
	if !ok {
		e.owner = -1
	}
	w := c.lookup(set, line)

	var res AccessResult
	if !write {
		if w != nil {
			c.touch(w)
			h.Hits++
			return AccessResult{Latency: h.cfg.HitLatency, Hit: true}
		}
		// Read miss: downgrade a remote M copy if present.
		h.Misses++
		res.Latency = h.cfg.MissLatency
		if e.owner >= 0 && e.owner != core {
			res.Latency = h.cfg.RemoteLatency
			e.sharers |= 1 << uint(e.owner)
			e.owner = -1
		}
		e.sharers |= 1 << uint(core)
		h.dir[line] = e
		res.EvictedLine, res.Evicted = c.insert(set, line, false)
		if res.Evicted {
			h.evictFrom(core, res.EvictedLine)
		}
		return res
	}

	// Write.
	if w != nil && e.owner == core {
		c.touch(w)
		w.dirty = true
		h.Hits++
		return AccessResult{Latency: h.cfg.HitLatency, Hit: true}
	}
	h.Misses++
	res.Latency = h.cfg.MissLatency
	// Invalidate every other copy.
	if e.owner >= 0 && e.owner != core {
		res.Latency = h.cfg.RemoteLatency
		h.invalidateAt(e.owner, line)
		res.InvalidatedMask |= 1 << uint(e.owner)
	}
	for other := 0; other < len(h.cores); other++ {
		if other == core || e.sharers&(1<<uint(other)) == 0 {
			continue
		}
		res.Latency = h.cfg.RemoteLatency
		h.invalidateAt(other, line)
		res.InvalidatedMask |= 1 << uint(other)
	}
	h.dir[line] = dirEntry{owner: core}
	if w != nil {
		// Upgrade in place: no fill needed.
		c.touch(w)
		w.dirty = true
	} else {
		res.EvictedLine, res.Evicted = c.insert(set, line, true)
		if res.Evicted {
			h.evictFrom(core, res.EvictedLine)
		}
	}
	return res
}

func (h *Hierarchy) invalidateAt(core int, line mem.Addr) {
	h.Invalidations++
	h.cores[core].invalidate(h.cfg.SetIndex(line), line)
}

// evictFrom updates directory state after core silently evicted line.
func (h *Hierarchy) evictFrom(core int, line mem.Addr) {
	h.Evictions++
	e, ok := h.dir[line]
	if !ok {
		return
	}
	if e.owner == core {
		e.owner = -1
	}
	e.sharers &^= 1 << uint(core)
	if e.owner < 0 && e.sharers == 0 {
		delete(h.dir, line)
	} else {
		h.dir[line] = e
	}
}

// Holds reports whether core currently caches the line containing a.
// Used by tests and by the machine's lock-spin fast path.
func (h *Hierarchy) Holds(core int, a mem.Addr) bool {
	line := a.Line()
	return h.cores[core].lookup(h.cfg.SetIndex(line), line) != nil
}
