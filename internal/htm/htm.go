// Package htm implements the hardware transactional memory engine of
// the simulated machine, modelled on Intel TSX's Restricted
// Transactional Memory (RTM).
//
// Like TSX, the engine detects conflicts at cache-line granularity
// through the coherence protocol with a requester-wins policy: when a
// core's access needs a line another transaction is tracking in a
// conflicting mode, the *tracking* transaction aborts (it is the one
// that receives the invalidation). Transactional stores are buffered
// and become visible only at commit. A transaction whose write set
// overflows an L1 set, or whose read set exceeds the read-tracking
// capacity, suffers a capacity abort. Unfriendly instructions (system
// calls, page faults) cause synchronous aborts, and PMU interrupts
// cause interrupt aborts — the machine layer reports those through
// Doom.
package htm

import (
	"fmt"
	"math/bits"

	"txsampler/internal/mem"
)

// Cause identifies why a transaction aborted. The zero value means the
// transaction has not aborted.
type Cause uint8

const (
	// None: no abort.
	None Cause = iota
	// Conflict: another core's memory access conflicted with this
	// transaction's read or write set (asynchronous abort).
	Conflict
	// Capacity: the transactional footprint exceeded the hardware's
	// tracking capacity (asynchronous abort).
	Capacity
	// Sync: an unfriendly instruction (system call, page fault, ...)
	// executed inside the transaction (synchronous abort).
	Sync
	// Explicit: the program executed XABORT.
	Explicit
	// Interrupt: a PMU counter overflow interrupt landed while the
	// transaction was running. These aborts are induced by the
	// profiler itself and are reported separately from application
	// aborts (paper §3.1).
	Interrupt
	// Spurious: an environment-injected transient abort with no cause
	// visible to software — real TSX occasionally aborts with a fully
	// clear EAX status (not even the retry bit) even though an
	// immediate retry succeeds. Produced only by the fault-injection
	// subsystem (internal/faults); like Interrupt, it is ambient noise
	// and excluded from application abort classification.
	Spurious

	// NumCauses is the number of defined abort causes (including
	// None), for metric arrays indexed by Cause.
	NumCauses = iota
)

func (c Cause) String() string {
	switch c {
	case None:
		return "none"
	case Conflict:
		return "conflict"
	case Capacity:
		return "capacity"
	case Sync:
		return "sync"
	case Explicit:
		return "explicit"
	case Interrupt:
		return "interrupt"
	case Spurious:
		return "spurious"
	}
	return "unknown"
}

// TSX EAX status bits, as the XBEGIN fallback path receives them
// (Intel SDM Vol. 1, RTM status register).
const (
	// StatusExplicit: the abort came from XABORT.
	StatusExplicit uint32 = 1 << 0
	// StatusRetry: the hardware hints the transaction may succeed on
	// retry.
	StatusRetry uint32 = 1 << 1
	// StatusConflict: another logical processor conflicted.
	StatusConflict uint32 = 1 << 2
	// StatusCapacity: an internal buffer overflowed.
	StatusCapacity uint32 = 1 << 3
	// StatusDebug: a debug breakpoint was hit (unused here).
	StatusDebug uint32 = 1 << 4
	// StatusNested: the abort occurred in a nested transaction
	// (unused: the RTM layer flattens nesting).
	StatusNested uint32 = 1 << 5
)

// TSXStatus encodes the cause as the EAX status word the fallback
// path of a real XBEGIN receives. Synchronous and interrupt aborts
// report a zero status, exactly as unfriendly instructions and
// asynchronous events do on hardware.
func (c Cause) TSXStatus() uint32 {
	switch c {
	case Conflict:
		return StatusConflict | StatusRetry
	case Capacity:
		return StatusCapacity
	case Explicit:
		return StatusExplicit
	default:
		return 0
	}
}

// CauseFromStatus decodes an EAX status word back to a cause; a zero
// status is indistinguishable between sync aborts and interrupts, as
// on hardware, and decodes to Sync.
func CauseFromStatus(s uint32) Cause {
	switch {
	case s&StatusExplicit != 0:
		return Explicit
	case s&StatusConflict != 0:
		return Conflict
	case s&StatusCapacity != 0:
		return Capacity
	default:
		return Sync
	}
}

// Retryable reports whether an abort with this cause may succeed if the
// transaction is simply retried, mirroring the TSX "retry" status bit:
// conflicts, interrupt-induced aborts, and spurious aborts are
// transient; capacity, synchronous, and explicit aborts are persistent.
func (c Cause) Retryable() bool { return c == Conflict || c == Interrupt || c == Spurious }

// Ambient reports whether the cause is environment noise rather than
// application behaviour: profiler-induced interrupt aborts and
// fault-injected spurious aborts. The analyzer excludes ambient causes
// from application abort classification so profiles stay comparable
// between clean and chaos runs.
func (c Cause) Ambient() bool { return c == Interrupt || c == Spurious }

// Config sizes the transactional tracking structures.
type Config struct {
	// Sets and Ways give the per-core L1 geometry used to track the
	// write set: a transaction aborts when the distinct write-set
	// lines mapping to one set exceed Ways.
	Sets, Ways int
	// MaxReadLines bounds the total read-set size (reads are tracked
	// in a larger secondary structure on real hardware). Zero means
	// 4096 lines (a 256 KiB L2 worth).
	MaxReadLines int
}

func (c Config) maxRead() int {
	if c.MaxReadLines > 0 {
		return c.MaxReadLines
	}
	return 4096
}

// Validate reports whether the tracking geometry is usable.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Ways <= 0 {
		return fmt.Errorf("htm: invalid geometry sets=%d ways=%d (both must be positive)", c.Sets, c.Ways)
	}
	if c.MaxReadLines < 0 {
		return fmt.Errorf("htm: negative MaxReadLines %d", c.MaxReadLines)
	}
	return nil
}

// CapacityKind records which set overflowed on a capacity abort.
type CapacityKind uint8

const (
	// CapacityNone: not a capacity abort.
	CapacityNone CapacityKind = iota
	// CapacityRead: the read set overflowed.
	CapacityRead
	// CapacityWrite: the write set overflowed an L1 set.
	CapacityWrite
)

func (k CapacityKind) String() string {
	switch k {
	case CapacityRead:
		return "read"
	case CapacityWrite:
		return "write"
	default:
		return "none"
	}
}

// MaxThreads is the number of hardware threads the engine (and the
// machine built around it) can track: a line's reader set is one bit
// per thread in a uint64.
const MaxThreads = 64

// The line table is paged like mem's memory: 1024 lines (64 KiB of
// address space) a page.
const (
	linePageShift = 10
	linePageLines = 1 << linePageShift
)

// lineState is one cache line's transactional tracking state.
type lineState struct {
	readers uint64 // bit t: thread t's transaction holds the line in its read set
	writer  uint8  // TID+1 of the transaction holding it in its write set, 0 if none
	slot    uint32 // the writer's write-buffer index for this line
}

type linePage [linePageLines]lineState

// wline buffers a transaction's stores to one line.
type wline struct {
	line  mem.Addr
	valid uint8 // bit w: words[w] holds a buffered store
	words [mem.WordsPerLine]mem.Word
}

// Store is one buffered transactional store, as Commit returns it.
type Store struct {
	Addr mem.Addr
	Val  mem.Word
}

// Tx is one hardware transaction attempt. Fields are read-only for
// callers; the engine mutates them. The engine keeps one Tx per thread
// and reuses it on the thread's next Begin, so a *Tx is valid only
// until then.
type Tx struct {
	ID  uint64
	TID int // simulated thread owning the transaction

	Doomed     bool
	AbortCause Cause
	CapKind    CapacityKind
	// ConflictLine is the line whose access triggered a conflict
	// abort, and AbortedBy the thread that issued it (-1 otherwise).
	// AbortedByTx distinguishes conflicts with another transaction
	// from conflicts with non-transactional code (e.g. the fallback
	// lock acquisition) — the finer cause granularity POWER8 exposes
	// and Intel does not (paper §10).
	ConflictLine mem.Addr
	AbortedBy    int
	AbortedByTx  bool

	StartCycle uint64 // thread clock at XBEGIN, for abort-weight accounting

	bit      uint64       // 1 << TID: this transaction's reader bit
	self     uint8        // TID+1: this transaction's writer tag
	nRead    int          // distinct lines in the read set
	tracked  []*lineState // lines in the read or write set, each once
	occBySet []uint16     // distinct tracked lines (read or write) per L1 set
	wbuf     []wline      // write buffer, one entry per write-set line
	stores   []Store      // Commit's result, reused
}

// ReadSetLines and WriteSetLines report the current footprint.
func (t *Tx) ReadSetLines() int  { return t.nRead }
func (t *Tx) WriteSetLines() int { return len(t.wbuf) }

// Engine tracks all in-flight transactions on the machine. The machine
// calls it only from operations at their canonical (gated) position,
// so the shared line table needs no locking.
type Engine struct {
	cfg    Config
	nextID uint64

	// pages is the line table: readers and writer of every line any
	// transaction has touched, keyed by line index. Doomed
	// transactions are removed eagerly, as hardware stops tracking an
	// aborted transaction's lines. lastPN/last cache the most recent
	// page lookup.
	pages  map[uint64]*linePage
	lastPN uint64
	last   *linePage
	// txs holds each thread's (reused) transaction; a line's reader
	// bits and writer tag index it.
	txs [MaxThreads]*Tx
	// readLines and writeLines count the lines with at least one
	// reader and with a writer.
	readLines, writeLines int

	// Stats.
	Commits uint64
	Aborts  map[Cause]uint64
}

// NewEngine returns an engine for the given tracking geometry. Direct
// API misuse panics; construct through a validated machine.Config (or
// call Config.Validate first) for an error instead.
func NewEngine(cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &Engine{
		cfg:    cfg,
		pages:  make(map[uint64]*linePage),
		Aborts: make(map[Cause]uint64),
	}
}

// lineState returns the table entry for line, or nil if its page does
// not exist and create is false.
func (e *Engine) lineState(line mem.Addr, create bool) *lineState {
	idx := line.LineIndex()
	pn := idx >> linePageShift
	p := e.last
	if p == nil || pn != e.lastPN {
		p = e.pages[pn]
		if p == nil {
			if !create {
				return nil
			}
			p = new(linePage)
			e.pages[pn] = p
		}
		e.last, e.lastPN = p, pn
	}
	return &p[idx&(linePageLines-1)]
}

// Begin starts a transaction for thread tid whose clock reads
// startCycle. It reuses the thread's Tx, so any transaction the thread
// still has in flight stops being tracked.
func (e *Engine) Begin(tid int, startCycle uint64) *Tx {
	if tid < 0 || tid >= MaxThreads {
		panic(fmt.Sprintf("htm: thread id %d out of range [0,%d)", tid, MaxThreads))
	}
	e.nextID++
	tx := e.txs[tid]
	if tx == nil {
		tx = &Tx{occBySet: make([]uint16, e.cfg.Sets)}
		e.txs[tid] = tx
	} else {
		e.untrack(tx)
		clear(tx.occBySet)
	}
	*tx = Tx{
		ID:         e.nextID,
		TID:        tid,
		AbortedBy:  -1,
		StartCycle: startCycle,
		bit:        1 << uint(tid),
		self:       uint8(tid + 1),
		tracked:    tx.tracked[:0],
		occBySet:   tx.occBySet,
		wbuf:       tx.wbuf[:0],
		stores:     tx.stores[:0],
	}
	return tx
}

// Doom marks tx aborted with the given cause and untracks its lines.
// byTID identifies the conflicting thread for conflict aborts; pass -1
// otherwise. Doom on an already-doomed transaction is a no-op so the
// first cause wins.
func (e *Engine) Doom(tx *Tx, cause Cause, byTID int, line mem.Addr) {
	e.doom(tx, cause, byTID, line, false)
}

func (e *Engine) doom(tx *Tx, cause Cause, byTID int, line mem.Addr, byTx bool) {
	if tx.Doomed {
		return
	}
	tx.Doomed = true
	tx.AbortCause = cause
	tx.AbortedBy = byTID
	tx.AbortedByTx = byTx
	tx.ConflictLine = line
	e.Aborts[cause]++
	e.untrack(tx)
}

func (e *Engine) untrack(tx *Tx) {
	for _, ls := range tx.tracked {
		if ls.readers&tx.bit != 0 {
			ls.readers &^= tx.bit
			if ls.readers == 0 {
				e.readLines--
			}
		}
		if ls.writer == tx.self {
			ls.writer = 0
			e.writeLines--
		}
	}
	tx.tracked = tx.tracked[:0]
}

// doomReaders dooms every transaction in mask, in TID order.
func (e *Engine) doomReaders(mask uint64, cause Cause, byTID int, line mem.Addr, byTx bool) {
	for ; mask != 0; mask &= mask - 1 {
		e.doom(e.txs[bits.TrailingZeros64(mask)], cause, byTID, line, byTx)
	}
}

func mustAligned(a mem.Addr) {
	if !a.WordAligned() {
		panic(fmt.Sprintf("htm: unaligned transactional access at %s", a))
	}
}

// wordIndex returns the index of a's word within its line.
func wordIndex(a mem.Addr) uint {
	return uint(a%mem.LineSize) / mem.WordSize
}

// Read performs a transactional load of the word at a. It returns the
// loaded value's source: ok=false means the value must come from
// memory; ok=true returns the transaction's own buffered store. Side
// effects: the line joins the read set (aborting a conflicting remote
// writer, requester-wins), and the transaction may doom itself with a
// capacity abort. Callers must check tx.Doomed afterwards.
func (e *Engine) Read(tx *Tx, a mem.Addr) (v mem.Word, ok bool) {
	if tx.Doomed {
		return 0, false
	}
	mustAligned(a)
	line := a.Line()
	ls := e.lineState(line, true)
	if ls.writer == tx.self {
		wl := &tx.wbuf[ls.slot]
		if w := wordIndex(a); wl.valid&(1<<w) != 0 {
			return wl.words[w], true
		}
	} else if ls.writer != 0 {
		// Requester wins: a remote transaction holding the line in its
		// write set receives our share request and aborts.
		e.doom(e.txs[ls.writer-1], Conflict, tx.TID, line, true)
	}
	if ls.readers&tx.bit == 0 {
		if tx.nRead >= e.cfg.maxRead() {
			tx.CapKind = CapacityRead
			e.Doom(tx, Capacity, -1, line)
			return 0, false
		}
		// Both read and write sets are tracked in the L1: a set whose
		// tracked lines exceed the associativity cannot hold the
		// footprint, and the transaction aborts (TSX read-set
		// evictions behave this way on the modelled parts).
		if ls.writer != tx.self {
			set := int(line.LineIndex() % uint64(e.cfg.Sets))
			if int(tx.occBySet[set]) >= e.cfg.Ways {
				tx.CapKind = CapacityRead
				e.Doom(tx, Capacity, -1, line)
				return 0, false
			}
			tx.occBySet[set]++
			tx.tracked = append(tx.tracked, ls)
		}
		tx.nRead++
		if ls.readers == 0 {
			e.readLines++
		}
		ls.readers |= tx.bit
	}
	return 0, false
}

// Write performs a transactional store, buffering the value. Remote
// transactions tracking the line in read or write sets abort
// (requester-wins). The transaction may doom itself with a capacity
// abort if the write set overflows its L1 set. Callers must check
// tx.Doomed afterwards.
func (e *Engine) Write(tx *Tx, a mem.Addr, v mem.Word) {
	if tx.Doomed {
		return
	}
	mustAligned(a)
	line := a.Line()
	ls := e.lineState(line, true)
	if ls.writer != 0 && ls.writer != tx.self {
		e.doom(e.txs[ls.writer-1], Conflict, tx.TID, line, true)
	}
	e.doomReaders(ls.readers&^tx.bit, Conflict, tx.TID, line, true)
	if ls.writer != tx.self {
		// A line already in the read set is already tracked in its L1
		// set; only new lines consume a way.
		if ls.readers&tx.bit == 0 {
			set := int(line.LineIndex() % uint64(e.cfg.Sets))
			if int(tx.occBySet[set]) >= e.cfg.Ways {
				tx.CapKind = CapacityWrite
				e.Doom(tx, Capacity, -1, line)
				return
			}
			tx.occBySet[set]++
			tx.tracked = append(tx.tracked, ls)
		}
		ls.writer = tx.self
		ls.slot = uint32(len(tx.wbuf))
		tx.wbuf = append(tx.wbuf, wline{line: line})
		e.writeLines++
	}
	wl := &tx.wbuf[ls.slot]
	w := wordIndex(a)
	wl.valid |= 1 << w
	wl.words[w] = v
}

// NonTxAccess notifies the engine of a non-transactional access by
// thread tid, aborting any transactions that conflict with it. A
// non-transactional write conflicts with remote read and write sets; a
// non-transactional read conflicts with remote write sets.
func (e *Engine) NonTxAccess(tid int, a mem.Addr, write bool) {
	line := a.Line()
	ls := e.lineState(line, false)
	if ls == nil {
		return
	}
	if ls.writer != 0 && int(ls.writer) != tid+1 {
		e.Doom(e.txs[ls.writer-1], Conflict, tid, line)
	}
	if write {
		e.doomReaders(ls.readers&^(1<<uint(tid)), Conflict, tid, line, false)
	}
}

// Commit attempts to commit tx. On success it returns the buffered
// stores for the machine to apply to memory, one per written word in
// first-written-line order, and records the commit; if the transaction
// was doomed it returns nil and false. The returned slice belongs to
// the engine and is valid until the thread's next Begin.
func (e *Engine) Commit(tx *Tx) (stores []Store, ok bool) {
	if tx.Doomed {
		return nil, false
	}
	e.untrack(tx)
	e.Commits++
	tx.stores = tx.stores[:0]
	for i := range tx.wbuf {
		wl := &tx.wbuf[i]
		for m := wl.valid; m != 0; m &= m - 1 {
			w := bits.TrailingZeros8(m)
			tx.stores = append(tx.stores, Store{Addr: wl.line.Offset(w), Val: wl.words[w]})
		}
	}
	return tx.stores, true
}

// InFlight reports how many lines are globally tracked; used by tests
// to verify no leaks after commits and aborts.
func (e *Engine) InFlight() (readLines, writeLines int) {
	return e.readLines, e.writeLines
}
