//go:build go1.23

package machine

// Coroutine scheduler (DESIGN.md §3.1). Every simulated thread is an
// iter.Pull coroutine, and one driver loop resumes them:
//
//   - Each thread has a published clock, lastPub: the pre-operation
//     clock of whatever it executes next.
//   - The driver resumes the live thread with the smallest (published
//     clock, ID) and hands it a frozen horizon: the second-smallest
//     (published clock, ID). No other thread can move while it runs,
//     so the horizon stays exact for the whole resume.
//   - Operations on thread-private state (Compute, Call, Return, a
//     Syscall outside a transaction, ...) run ungated.
//   - Operations on shared machine state (memory, caches, the HTM
//     engine, sample delivery, Exclusive sections), and every operation
//     inside a transaction, first gate: they run only while the
//     thread's (published clock, ID) is below the horizon. That is
//     exactly the canonical per-op schedule's rule (always advance the
//     live thread with the smallest (clock, ID)), so every shared
//     effect lands in the same total order whatever the host does.
//   - A failed gate yields back to the driver, which resumes the new
//     minimum. One switch per blocked gate, and no atomics, scans,
//     spinning or sleeping on the gate path.
//
// A thread coroutine and the driver never run at the same time: each
// resume and yield is a synchronous handoff and a happens-before edge.
// So the state they share needs no locking. Only mu guards what the
// watchdog and context watcher, which run truly concurrently, read or
// post.

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// scheduler is one run's coordination state.
type scheduler struct {
	live    []*Thread // unfinished threads, ID order; driver-owned
	stopped bool      // a terminal error is recorded: threads unwind
	err     error     // the terminal error, first one wins
	resumes uint64    // coroutine resumes so far
	done    chan error

	progress atomic.Uint64 // quantum ticks, for the watchdog
	running  atomic.Int32  // ID of the resumed thread, for the watchdog

	mu        sync.Mutex
	status    []threadStatus // per-thread snapshot at its last tick
	cancelErr error          // posted by the context watcher
	abandoned bool           // the watchdog gave up on the run
}

// unwindSentinel is the panic value a thread unwinds with once the run
// has stopped (failure, cancellation, livelock, or another thread's
// panic). Thread.main recovers it; Attempt and the rtm runtime's own
// recover sites re-panic it like any foreign value.
type unwindSentinel struct{}

// main is the thread's coroutine body. The deferred finish recovers
// every panic, so none reaches the driver. The initial tick records a
// status snapshot and picks up a context canceled before Run.
func (t *Thread) main(body func(*Thread)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		t.yield = yield
		defer func() { t.finish(recover()) }()
		t.quantumTick()
		body(t)
	}
}

// drive runs the machine to a terminal result and reports it on done:
// resume the minimum thread under its frozen horizon until every
// thread finished or the run stopped, then unwind the suspended ones.
func (m *Machine) drive(bodies []func(*Thread)) {
	s := m.sched
	next := make([]func() (struct{}, bool), len(m.threads))
	stop := make([]func(), len(m.threads))
	for i, t := range m.threads {
		next[i], stop[i] = iter.Pull(t.main(bodies[i]))
	}
	var cur *Thread // the thread whose run slice is open
	defer func() {
		if len(s.live) > 0 && !s.stopped {
			// The loop did not finish: a thread body called
			// runtime.Goexit, which iter.Pull re-raises here.
			s.stopped, s.err = true, fmt.Errorf("machine: thread %d exited via runtime.Goexit", cur.ID)
		}
		// Every suspended thread's gate sees yield return false and
		// panics unwindSentinel; the zero horizon makes every later gate
		// fail too, so a workload that swallows the sentinel unwinds at
		// its next gate.
		for _, t := range s.live {
			t.hClock, t.hID = 0, -1
			stop[t.ID]()
			t.flushTrace()
		}
		s.done <- s.err
	}()
	for len(s.live) > 0 && !s.stopped {
		t := s.pick()
		if t != cur {
			// A switch to a different thread ends the open run slice; a
			// re-resume of the same thread continues it.
			cur.endSlice()
			cur, t.sliceStart = t, t.clock
			s.running.Store(int32(t.ID))
		}
		s.resumes++
		if _, ok := next[t.ID](); !ok {
			t.endSlice()
			cur = nil
			s.live = slices.DeleteFunc(s.live, func(c *Thread) bool { return c == t })
		}
	}
}

// pick returns the live thread with the smallest (published clock,
// ID) and freezes its horizon at the second-smallest. live is in ID
// order, so strict comparisons break clock ties by ID.
func (s *scheduler) pick() *Thread {
	var t *Thread
	hClock, hID := uint64(math.MaxUint64), math.MaxInt
	for _, c := range s.live {
		switch {
		case t == nil:
			t = c
		case c.lastPub < t.lastPub:
			hClock, hID = t.lastPub, t.ID
			t = c
		case c.lastPub < hClock:
			hClock, hID = c.lastPub, c.ID
		}
	}
	t.hClock, t.hID = hClock, hID
	return t
}

// gate returns once this thread's pending operation is the canonical
// minimum: its (published clock, ID) below the frozen horizon. While
// it is not, the thread yields to the driver, which resumes it only as
// the new minimum. Panics unwindSentinel if the run stopped meanwhile.
func (t *Thread) gate() {
	if t.lastPub < t.hClock || (t.lastPub == t.hClock && t.ID < t.hID) {
		return
	}
	t.gateSlow()
}

func (t *Thread) gateSlow() {
	for {
		if !t.yield(struct{}{}) {
			panic(unwindSentinel{})
		}
		if t.lastPub < t.hClock || (t.lastPub == t.hClock && t.ID < t.hID) {
			return
		}
	}
}

// Exclusive runs fn at the thread's current canonical position,
// mutually exclusive with every other thread's Exclusive sections and
// shared-state operations, in the order the per-op schedule runs it.
// Runtime libraries layered on the machine (internal/rtm,
// instrumentation sinks) use it to mutate Go-level state shared across
// simulated threads — per-lock statistics, event logs. fn must not
// invoke thread operations.
func (t *Thread) Exclusive(fn func()) {
	t.gate()
	fn()
}

// quantumTick is the per-quantum slow path: refresh the status
// snapshot for diagnostic dumps, feed the watchdog, and stop at a
// pending cancellation. It makes no scheduling decision.
func (t *Thread) quantumTick() {
	t.sinceTick = 0
	s := t.m.sched
	s.mu.Lock()
	s.status[t.ID] = statusOf(t)
	cancel, abandoned := s.cancelErr, s.abandoned
	s.mu.Unlock()
	s.progress.Add(1)
	switch {
	case cancel != nil:
		t.fail(fmt.Errorf("%w at a quantum boundary: %w", ErrCanceled, cancel))
	case abandoned || s.stopped:
		// The watchdog gave up on the run, or this thread swallowed its
		// unwind sentinel and carried on with private operations.
		t.fail(errAbandoned)
	}
}

// errAbandoned stops a run the watchdog already reported on; nobody
// receives it, but stopping unwinds the remaining thread coroutines.
var errAbandoned = errors.New("machine: run abandoned by the watchdog")

// livelock handles a thread whose clock passed MaxCycles: wait to be
// the canonical minimum (the slowest live thread), then fail the run.
func (t *Thread) livelock() {
	t.gate()
	s := t.m.sched
	s.mu.Lock()
	s.status[t.ID] = statusOf(t)
	dump := dumpStatus(s.status, -1)
	s.mu.Unlock()
	t.fail(fmt.Errorf("machine: watchdog: slowest live thread passed MaxCycles=%d without completing (livelock?)\n%s",
		t.maxCycles, dump))
}

// fail records err as the run's terminal result, unless one already
// is, and unwinds the thread. The driver stops the others.
func (t *Thread) fail(err error) {
	if s := t.m.sched; !s.stopped {
		s.stopped, s.err = true, err
	}
	panic(unwindSentinel{})
}

// finish runs when the body returns or panics: record the final
// status and, for a workload panic, stop the run. Fail fast: the dead
// thread may hold a spin lock other threads would wait on forever.
func (t *Thread) finish(panicked any) {
	s := t.m.sched
	s.mu.Lock()
	st := statusOf(t)
	st.done = true
	s.status[t.ID] = st
	s.mu.Unlock()
	s.progress.Add(1)
	if _, unwound := panicked.(unwindSentinel); panicked != nil && !unwound && !s.stopped {
		s.stopped, s.err = true, panicErr(t.ID, panicked)
	}
}

// schedule starts the driver and waits for its terminal result. A
// watchdog goroutine monitors quantum-tick progress in real time: if
// the resumed thread stops executing operations (a deadlock in
// workload or handler code), schedule fails with a per-thread
// diagnostic dump instead of hanging. A cycle budget
// (Config.MaxCycles) catches livelock the same way.
func (m *Machine) schedule(bodies []func(*Thread)) error {
	s := m.sched
	timeout := m.cfg.Watchdog
	if timeout == 0 {
		timeout = DefaultWatchdog
	}
	fired := make(chan struct{})
	stop := make(chan struct{})
	defer close(stop)
	if timeout > 0 {
		go watchdogLoop(timeout, &s.progress, fired, stop)
	}
	if ctx := m.cfg.Context; ctx != nil {
		// The watcher only posts the cancellation; the resumed thread
		// delivers it at its next quantum tick, between operations.
		go func() {
			select {
			case <-ctx.Done():
				s.mu.Lock()
				s.cancelErr = context.Cause(ctx)
				s.mu.Unlock()
			case <-stop:
			}
		}()
	}
	go m.drive(bodies)

	select {
	case err := <-s.done:
		return err
	case <-fired:
		// A terminal report may have raced the watchdog; prefer it.
		select {
		case err := <-s.done:
			return err
		default:
		}
		s.mu.Lock()
		s.abandoned = true
		snap := slices.Clone(s.status)
		s.mu.Unlock()
		// The stuck thread is the resumed one: the driver is blocked
		// inside its resume. A thread blocked in Go code cannot be
		// unwound, so its coroutine and the driver stay parked until it
		// returns; its next quantum tick then stops the run.
		return watchdogError(timeout, snap, m.threads[s.running.Load()])
	}
}
