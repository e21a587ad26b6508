package htm

import (
	"strings"
	"testing"

	"txsampler/internal/mem"
)

// TestReusedTxStartsClean: Begin hands a thread back its previous Tx,
// and nothing of the previous attempt survives the reset.
func TestReusedTxStartsClean(t *testing.T) {
	e := NewEngine(Config{Sets: 4, Ways: 2, MaxReadLines: 100})
	tx := e.Begin(0, 10)
	e.Read(tx, 0x10000)
	e.Write(tx, 0x10100, 5) // set 0 now holds two lines
	other := e.Begin(1, 0)
	e.Write(other, 0x10000, 1) // dooms tx by a transactional conflict
	if !tx.Doomed || tx.AbortCause != Conflict || tx.AbortedBy != 1 || !tx.AbortedByTx || tx.ConflictLine != 0x10000 {
		t.Fatalf("setup: %+v", tx)
	}
	e.Doom(other, Explicit, -1, 0)
	first := tx.ID

	tx2 := e.Begin(0, 20)
	if tx2 != tx {
		t.Fatal("Begin did not reuse the thread's Tx")
	}
	if tx2.ID == first || tx2.TID != 0 || tx2.StartCycle != 20 {
		t.Fatalf("identity not reset: id=%d tid=%d start=%d", tx2.ID, tx2.TID, tx2.StartCycle)
	}
	if tx2.Doomed || tx2.AbortCause != None || tx2.CapKind != CapacityNone ||
		tx2.AbortedBy != -1 || tx2.AbortedByTx || tx2.ConflictLine != 0 {
		t.Fatalf("abort state not reset: %+v", tx2)
	}
	if tx2.ReadSetLines() != 0 || tx2.WriteSetLines() != 0 {
		t.Fatalf("footprint not reset: r=%d w=%d", tx2.ReadSetLines(), tx2.WriteSetLines())
	}
	if _, ok := e.Read(tx2, 0x10100); ok {
		t.Fatal("write buffer survived the reset")
	}
	// Set 0 has Ways=2: one more line fits only if occBySet was cleared.
	e.Write(tx2, 0x10200, 7)
	if tx2.Doomed {
		t.Fatalf("occBySet not reset: %v/%v", tx2.AbortCause, tx2.CapKind)
	}
	stores, ok := e.Commit(tx2)
	if !ok || len(stores) != 1 || stores[0] != (Store{0x10200, 7}) {
		t.Fatalf("commit = %v, %v; want only the new store", stores, ok)
	}
	if r, w := e.InFlight(); r != 0 || w != 0 {
		t.Fatalf("leaked tracking: r=%d w=%d", r, w)
	}
}

// TestReusedTxAfterCapacityAbort: the capacity kind of an earlier
// attempt does not leak into the next one.
func TestReusedTxAfterCapacityAbort(t *testing.T) {
	e := NewEngine(Config{Sets: 8, Ways: 8, MaxReadLines: 2})
	tx := e.Begin(3, 0)
	for i := 0; i < 3; i++ {
		e.Read(tx, mem.Addr(0x20000+i*64))
	}
	if tx.AbortCause != Capacity || tx.CapKind != CapacityRead {
		t.Fatalf("setup: %v/%v", tx.AbortCause, tx.CapKind)
	}
	tx = e.Begin(3, 0)
	if tx.Doomed || tx.AbortCause != None || tx.CapKind != CapacityNone {
		t.Fatalf("capacity abort survived the reset: %+v", tx)
	}
	e.Read(tx, 0x20000)
	e.Read(tx, 0x20040)
	if tx.Doomed {
		t.Fatal("read count not reset")
	}
}

// TestBeginAbandonsInFlightTx: beginning again on a thread whose
// transaction is still live stops tracking the old footprint.
func TestBeginAbandonsInFlightTx(t *testing.T) {
	e := eng()
	tx := e.Begin(0, 0)
	e.Read(tx, 0x3000)
	e.Write(tx, 0x3040, 1)
	e.Begin(0, 0)
	if r, w := e.InFlight(); r != 0 || w != 0 {
		t.Fatalf("abandoned footprint still tracked: r=%d w=%d", r, w)
	}
}

// TestWriteDoomsAllReaders: a remote write aborts every reader of the
// line, however many, and leaves nothing of theirs tracked.
func TestWriteDoomsAllReaders(t *testing.T) {
	e := eng()
	var readers []*Tx
	for _, tid := range []int{0, 2, 5, 63} {
		r := e.Begin(tid, 0)
		e.Read(r, 0x5000)
		e.Read(r, mem.Addr(0x6000+tid*64)) // a private line too
		readers = append(readers, r)
	}
	w := e.Begin(7, 0)
	e.Write(w, 0x5008, 1)
	for _, r := range readers {
		if !r.Doomed || r.AbortCause != Conflict || r.AbortedBy != 7 || !r.AbortedByTx || r.ConflictLine != 0x5000 {
			t.Fatalf("reader %d: %+v", r.TID, r)
		}
	}
	if w.Doomed {
		t.Fatal("writer should survive")
	}
	if got := e.Aborts[Conflict]; got != uint64(len(readers)) {
		t.Fatalf("conflict aborts = %d, want %d", got, len(readers))
	}
	if _, ok := e.Commit(w); !ok {
		t.Fatal("writer commit failed")
	}
	if r, w := e.InFlight(); r != 0 || w != 0 {
		t.Fatalf("InFlight = (%d,%d), want (0,0)", r, w)
	}
}

// TestNonTxWriteDoomsAllReaders: likewise for a non-transactional
// write, which is not a transactional conflict.
func TestNonTxWriteDoomsAllReaders(t *testing.T) {
	e := eng()
	var readers []*Tx
	for tid := 0; tid < 4; tid++ {
		r := e.Begin(tid, 0)
		e.Read(r, 0x5000)
		readers = append(readers, r)
	}
	e.NonTxAccess(1, 0x5000, true) // the thread's own read set is spared
	for _, r := range readers {
		if want := r.TID != 1; r.Doomed != want {
			t.Fatalf("reader %d doomed=%v, want %v", r.TID, r.Doomed, want)
		}
		if r.Doomed && (r.AbortedBy != 1 || r.AbortedByTx) {
			t.Fatalf("reader %d: by=%d byTx=%v", r.TID, r.AbortedBy, r.AbortedByTx)
		}
	}
	if r, w := e.InFlight(); r != 1 || w != 0 {
		t.Fatalf("InFlight = (%d,%d), want (1,0)", r, w)
	}
}

func TestHighestThreadID(t *testing.T) {
	e := eng()
	hi := e.Begin(MaxThreads-1, 0)
	lo := e.Begin(0, 0)
	e.Write(hi, 0x7000, 1)
	e.Read(lo, 0x7000) // requester wins over TID 63's write
	if !hi.Doomed || hi.AbortedBy != 0 {
		t.Fatalf("TID 63 writer: %+v", hi)
	}
	hi = e.Begin(MaxThreads-1, 0)
	e.Read(hi, 0x7040)
	e.Write(lo, 0x7040, 2)
	if !hi.Doomed || hi.AbortedBy != 0 {
		t.Fatalf("TID 63 reader: %+v", hi)
	}
	hi = e.Begin(MaxThreads-1, 0)
	e.Write(hi, 0x7080, 3)
	e.NonTxAccess(MaxThreads-1, 0x7080, true)
	if hi.Doomed {
		t.Fatal("TID 63's own non-transactional access aborted it")
	}
	if stores, ok := e.Commit(hi); !ok || len(stores) != 1 || stores[0] != (Store{0x7080, 3}) {
		t.Fatalf("TID 63 commit = %v, %v", stores, ok)
	}
	if _, ok := e.Commit(lo); !ok {
		t.Fatal("TID 0 commit failed")
	}
	if r, w := e.InFlight(); r != 0 || w != 0 {
		t.Fatalf("leaked tracking: r=%d w=%d", r, w)
	}
}

func TestBeginThreadIDOutOfRangePanics(t *testing.T) {
	for _, tid := range []int{-1, MaxThreads, 100} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "out of range [0,64)") {
					t.Errorf("Begin(%d) panic = %q, want an out-of-range message", tid, msg)
				}
			}()
			eng().Begin(tid, 0)
		}()
	}
}

func TestUnalignedAccessPanics(t *testing.T) {
	for name, f := range map[string]func(e *Engine, tx *Tx){
		"read":  func(e *Engine, tx *Tx) { e.Read(tx, 0x1004) },
		"write": func(e *Engine, tx *Tx) { e.Write(tx, 0x1004, 1) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "unaligned") {
					t.Errorf("%s: panic = %q, want unaligned access", name, msg)
				}
			}()
			e := eng()
			f(e, e.Begin(0, 0))
		}()
	}
}

// txCycle is one small transaction: two reads, a read-modify-write
// and a blind write over three lines.
func txCycle(e *Engine, tid int) {
	tx := e.Begin(tid, 0)
	e.Read(tx, 0x40000)
	e.Read(tx, 0x40048)
	v, _ := e.Read(tx, 0x40080)
	e.Write(tx, 0x40080, v+1)
	e.Write(tx, 0x40050, 2)
	e.Commit(tx)
}

func TestTxSteadyStateAllocFree(t *testing.T) {
	e := eng()
	txCycle(e, 0) // warm: allocate the Tx, its buffers and the table page
	if allocs := testing.AllocsPerRun(100, func() { txCycle(e, 0) }); allocs != 0 {
		t.Fatalf("warmed transaction allocates %.1f objects, want 0", allocs)
	}
}

func BenchmarkEngineTx(b *testing.B) {
	e := NewEngine(Config{Sets: 128, Ways: 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		txCycle(e, i&3)
	}
}
