package htm

import (
	"slices"
	"testing"
	"testing/quick"

	"txsampler/internal/mem"
)

func eng() *Engine { return NewEngine(Config{Sets: 8, Ways: 2, MaxReadLines: 32}) }

func TestCommitAppliesBufferedStores(t *testing.T) {
	e := eng()
	tx := e.Begin(0, 100)
	e.Write(tx, 0x1000, 7)
	e.Write(tx, 0x1008, 8)
	if tx.Doomed {
		t.Fatal("unexpected doom")
	}
	stores, ok := e.Commit(tx)
	if !ok {
		t.Fatal("commit failed")
	}
	if want := []Store{{0x1000, 7}, {0x1008, 8}}; !slices.Equal(stores, want) {
		t.Fatalf("stores = %v, want %v", stores, want)
	}
	if e.Commits != 1 {
		t.Fatalf("Commits = %d", e.Commits)
	}
	if r, w := e.InFlight(); r != 0 || w != 0 {
		t.Fatalf("leaked tracking: r=%d w=%d", r, w)
	}
}

func TestReadSeesOwnWrite(t *testing.T) {
	e := eng()
	tx := e.Begin(0, 0)
	e.Write(tx, 0x2000, 99)
	v, ok := e.Read(tx, 0x2000)
	if !ok || v != 99 {
		t.Fatalf("Read = %d,%v, want 99,true", v, ok)
	}
	// A different word on the same line is not forwarded.
	if _, ok := e.Read(tx, 0x2008); ok {
		t.Fatal("forwarded a value never written")
	}
}

func TestWriteWriteConflictRequesterWins(t *testing.T) {
	e := eng()
	a := e.Begin(0, 0)
	b := e.Begin(1, 0)
	e.Write(a, 0x3000, 1)
	e.Write(b, 0x3008, 2) // same line, different word: still a conflict
	if !a.Doomed || a.AbortCause != Conflict || a.AbortedBy != 1 {
		t.Fatalf("victim a: doomed=%v cause=%v by=%d", a.Doomed, a.AbortCause, a.AbortedBy)
	}
	if b.Doomed {
		t.Fatal("requester b should survive")
	}
	if a.ConflictLine != mem.Addr(0x3000).Line() {
		t.Fatalf("conflict line = %v", a.ConflictLine)
	}
}

func TestReadOfRemoteWriteSetAbortsWriter(t *testing.T) {
	e := eng()
	a := e.Begin(0, 0)
	b := e.Begin(1, 0)
	e.Write(a, 0x4000, 1)
	e.Read(b, 0x4000)
	if !a.Doomed || a.AbortCause != Conflict {
		t.Fatal("writer not aborted by remote read")
	}
	if b.Doomed {
		t.Fatal("reader should survive")
	}
}

func TestWriteToRemoteReadSetAbortsReaders(t *testing.T) {
	e := eng()
	r1 := e.Begin(0, 0)
	r2 := e.Begin(1, 0)
	w := e.Begin(2, 0)
	e.Read(r1, 0x5000)
	e.Read(r2, 0x5000)
	e.Write(w, 0x5000, 1)
	if !r1.Doomed || !r2.Doomed {
		t.Fatal("readers not aborted by remote write")
	}
	if w.Doomed {
		t.Fatal("writer should survive")
	}
}

func TestConcurrentReadersNoConflict(t *testing.T) {
	e := eng()
	r1 := e.Begin(0, 0)
	r2 := e.Begin(1, 0)
	e.Read(r1, 0x6000)
	e.Read(r2, 0x6000)
	if r1.Doomed || r2.Doomed {
		t.Fatal("read sharing should not conflict")
	}
}

func TestNonTxWriteAbortsReadersAndWriter(t *testing.T) {
	e := eng()
	r := e.Begin(0, 0)
	w := e.Begin(1, 0)
	e.Read(r, 0x7000)
	e.Write(w, 0x7040, 1)
	e.NonTxAccess(2, 0x7000, true)
	e.NonTxAccess(2, 0x7040, true)
	if !r.Doomed || !w.Doomed {
		t.Fatal("non-tx write must abort conflicting transactions")
	}
	if r.AbortedBy != 2 || w.AbortedBy != 2 {
		t.Fatalf("AbortedBy = %d,%d, want 2,2", r.AbortedBy, w.AbortedBy)
	}
}

func TestNonTxReadAbortsOnlyWriter(t *testing.T) {
	e := eng()
	r := e.Begin(0, 0)
	w := e.Begin(1, 0)
	e.Read(r, 0x8000)
	e.Write(w, 0x8000+64, 1)
	e.NonTxAccess(2, 0x8000, false)
	e.NonTxAccess(2, 0x8000+64, false)
	if r.Doomed {
		t.Fatal("non-tx read must not abort readers")
	}
	if !w.Doomed {
		t.Fatal("non-tx read must abort a transactional writer")
	}
}

func TestOwnNonTxAccessDoesNotSelfAbort(t *testing.T) {
	e := eng()
	tx := e.Begin(0, 0)
	e.Write(tx, 0x9000, 1)
	e.NonTxAccess(0, 0x9000, true) // same thread (e.g. fallback after cleanup bug): no self-doom
	if tx.Doomed {
		t.Fatal("self access aborted own transaction")
	}
}

func TestWriteCapacityPerSetOverflow(t *testing.T) {
	e := NewEngine(Config{Sets: 4, Ways: 2, MaxReadLines: 100})
	tx := e.Begin(0, 0)
	// Lines with index ≡ 0 mod 4 all land in set 0: 64*4 stride.
	stride := mem.Addr(64 * 4)
	e.Write(tx, 0*stride+0x10000, 1)
	e.Write(tx, 1*stride+0x10000, 1)
	if tx.Doomed {
		t.Fatal("doomed before overflow")
	}
	e.Write(tx, 2*stride+0x10000, 1)
	if !tx.Doomed || tx.AbortCause != Capacity || tx.CapKind != CapacityWrite {
		t.Fatalf("want write-capacity abort, got doomed=%v cause=%v kind=%v", tx.Doomed, tx.AbortCause, tx.CapKind)
	}
}

func TestWriteCapacitySpreadAcrossSetsSurvives(t *testing.T) {
	e := NewEngine(Config{Sets: 4, Ways: 2, MaxReadLines: 100})
	tx := e.Begin(0, 0)
	// 8 lines spread across 4 sets: 2 per set, exactly at capacity.
	for i := 0; i < 8; i++ {
		e.Write(tx, mem.Addr(0x10000+i*64), 1)
	}
	if tx.Doomed {
		t.Fatal("evenly spread write set should fit")
	}
	if _, ok := e.Commit(tx); !ok {
		t.Fatal("commit failed")
	}
}

func TestReadCapacity(t *testing.T) {
	e := NewEngine(Config{Sets: 8, Ways: 8, MaxReadLines: 4})
	tx := e.Begin(0, 0)
	for i := 0; i < 4; i++ {
		e.Read(tx, mem.Addr(0x20000+i*64))
	}
	if tx.Doomed {
		t.Fatal("doomed before read limit")
	}
	e.Read(tx, 0x30000)
	if !tx.Doomed || tx.CapKind != CapacityRead {
		t.Fatalf("want read-capacity abort, got cause=%v kind=%v", tx.AbortCause, tx.CapKind)
	}
}

func TestDoomFirstCauseWins(t *testing.T) {
	e := eng()
	tx := e.Begin(0, 0)
	e.Doom(tx, Sync, -1, 0)
	e.Doom(tx, Conflict, 3, 0x40)
	if tx.AbortCause != Sync || tx.AbortedBy != -1 {
		t.Fatalf("second doom overwrote first: %v by %d", tx.AbortCause, tx.AbortedBy)
	}
	if e.Aborts[Sync] != 1 || e.Aborts[Conflict] != 0 {
		t.Fatalf("abort stats: %v", e.Aborts)
	}
}

func TestDoomedTxStopsConflicting(t *testing.T) {
	e := eng()
	a := e.Begin(0, 0)
	b := e.Begin(1, 0)
	e.Write(a, 0xa000, 1)
	e.Doom(a, Interrupt, -1, 0)
	e.Write(b, 0xa000, 2) // must not be affected by the dead tx
	if b.Doomed {
		t.Fatal("doomed tx still caused a conflict")
	}
	if _, ok := e.Commit(b); !ok {
		t.Fatal("b should commit")
	}
}

func TestCommitDoomedFails(t *testing.T) {
	e := eng()
	tx := e.Begin(0, 0)
	e.Write(tx, 0xb000, 1)
	e.Doom(tx, Explicit, -1, 0)
	if _, ok := e.Commit(tx); ok {
		t.Fatal("doomed transaction committed")
	}
}

func TestTSXStatusRoundTrip(t *testing.T) {
	for _, c := range []Cause{Conflict, Capacity, Explicit} {
		if got := CauseFromStatus(c.TSXStatus()); got != c {
			t.Errorf("round trip %v -> %#x -> %v", c, c.TSXStatus(), got)
		}
	}
	// Sync and Interrupt both encode as zero status: hardware cannot
	// tell them apart either, and zero decodes to Sync.
	if Sync.TSXStatus() != 0 || Interrupt.TSXStatus() != 0 {
		t.Error("sync/interrupt status must be zero")
	}
	if CauseFromStatus(0) != Sync {
		t.Error("zero status must decode to Sync")
	}
	// The retry hint matches Retryable for hardware-reported causes.
	if Conflict.TSXStatus()&StatusRetry == 0 {
		t.Error("conflict status lacks the retry hint")
	}
	if Capacity.TSXStatus()&StatusRetry != 0 {
		t.Error("capacity status must not hint retry")
	}
}

func TestCauseRetryable(t *testing.T) {
	want := map[Cause]bool{Conflict: true, Interrupt: true, Capacity: false, Sync: false, Explicit: false}
	for c, r := range want {
		if c.Retryable() != r {
			t.Errorf("%v.Retryable() = %v, want %v", c, c.Retryable(), r)
		}
	}
}

func TestCauseStrings(t *testing.T) {
	for c, s := range map[Cause]string{None: "none", Conflict: "conflict", Capacity: "capacity", Sync: "sync", Explicit: "explicit", Interrupt: "interrupt", Cause(200): "unknown"} {
		if c.String() != s {
			t.Errorf("Cause(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
	for k, s := range map[CapacityKind]string{CapacityNone: "none", CapacityRead: "read", CapacityWrite: "write"} {
		if k.String() != s {
			t.Errorf("CapacityKind.String() = %q, want %q", k.String(), s)
		}
	}
}

// Property: serial transactions (begin, ops, commit — one at a time,
// fitting in capacity) always commit, and the engine never leaks
// tracked lines.
func TestQuickSerialAlwaysCommits(t *testing.T) {
	e := NewEngine(Config{Sets: 64, Ways: 8, MaxReadLines: 1024})
	f := func(ops []uint16) bool {
		tx := e.Begin(0, 0)
		for _, o := range ops {
			a := mem.Addr(0x100000 + uint64(o%256)*8)
			if o&0x8000 != 0 {
				e.Write(tx, a, mem.Word(o))
			} else {
				e.Read(tx, a)
			}
			if tx.Doomed {
				return false
			}
		}
		if _, ok := e.Commit(tx); !ok {
			return false
		}
		r, w := e.InFlight()
		return r == 0 && w == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: under two concurrently interleaved transactions touching a
// small address pool, at most one of any conflicting pair survives, and
// a surviving transaction's commit succeeds.
func TestQuickRequesterAlwaysSurvives(t *testing.T) {
	type op struct {
		T     bool // which tx
		Slot  uint8
		Write bool
	}
	f := func(ops []op) bool {
		e := NewEngine(Config{Sets: 64, Ways: 8, MaxReadLines: 1024})
		txs := []*Tx{e.Begin(0, 0), e.Begin(1, 0)}
		for _, o := range ops {
			idx := 0
			if o.T {
				idx = 1
			}
			tx := txs[idx]
			if tx.Doomed {
				continue
			}
			a := mem.Addr(0x200000 + uint64(o.Slot%8)*64)
			if o.Write {
				e.Write(tx, a, 1)
			} else {
				e.Read(tx, a)
			}
			// The requester must never be doomed by its own access
			// (capacity is impossible here: pool is 8 lines).
			if tx.Doomed {
				return false
			}
		}
		for _, tx := range txs {
			if !tx.Doomed {
				if _, ok := e.Commit(tx); !ok {
					return false
				}
			}
		}
		r, w := e.InFlight()
		return r == 0 && w == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
