// Package des provides the discrete-event simulation core of the
// stochastic-activity-network simulator: a simulation clock and a future-event
// list that holds at most one pending completion per activity.
//
// Activities are named by dense ids in [0, n). The list is a 4-ary min-heap of
// plain (time, sequence, id) values with a per-id position index, so it holds
// no pointers: scheduling, rescheduling and canceling move values within one
// preallocated slice and never allocate. Completions fire in (time, sequence)
// order, a strict total order because every Schedule, including the
// rescheduling of an id that is already pending, takes the next sequence
// number. Ties in time therefore fire in the order they were (re)scheduled.
//
// Run fires with the "hold" operation of event-set studies: the firing
// completion keeps its root slot until fire returns, and Pending already
// reports it gone. The first id that is not pending and is scheduled during
// fire takes that slot with one sift-down from the root, so the usual
// "complete, then schedule the next completion" costs one sift instead of
// a pop and a push. Reset and ResumeAt must not be called from fire: Reset
// clears the slot flag.
//
// Time is a float64 in hours, consistent with the rest of the repository.
package des

import (
	"errors"
	"fmt"
	"math"
)

// ErrPastEvent reports a completion scheduled before the current clock.
var ErrPastEvent = errors.New("des: cannot schedule an event in the past")

// entry is one pending completion.
type entry struct {
	time float64
	seq  uint64
	id   int32
}

func (a entry) before(b entry) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// arity is the heap's branching factor: a 4-ary heap is half as deep as a
// binary one, and the four children of a node share a cache line or two.
const arity = 4

// Engine is a single-threaded discrete-event engine over n activity ids. It
// is not safe for concurrent use; run one Engine per replication (optionally
// in parallel goroutines, each with its own Engine).
type Engine struct {
	now     float64
	seq     uint64
	stopped bool
	fired   uint64

	heap []entry
	pos  []int32 // heap index of each id's pending entry, -1 when none

	// open reports that heap[0] still holds the completion Run is firing:
	// it is no longer pending, and the next new id scheduled replaces it.
	open bool
}

// NewEngine returns an engine for ids in [0, n) with the clock at 0.
func NewEngine(n int) *Engine {
	e := &Engine{heap: make([]entry, 0, n), pos: make([]int32, n)}
	for i := range e.pos {
		e.pos[i] = -1
	}
	return e
}

// Now returns the current simulation time in hours.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of completions executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule sets id's pending completion to absolute time t with the next
// sequence number. If id already has a pending completion it is replaced, so
// rescheduling fires after every completion already pending at the same time.
// On error nothing changes.
func (e *Engine) Schedule(id int, t float64) error {
	if math.IsNaN(t) {
		return fmt.Errorf("des: NaN event time")
	}
	if t < e.now {
		return fmt.Errorf("%w: t=%v now=%v", ErrPastEvent, t, e.now)
	}
	en := entry{time: t, seq: e.seq, id: int32(id)}
	e.seq++
	if i := e.pos[id]; i >= 0 {
		e.fix(int(i), en)
		return nil
	}
	if e.open {
		// en follows the firing completion in (time, sequence) order, as
		// every pending entry does, so it may take the root slot and sift
		// down from there.
		e.open = false
		e.down(0, en)
		return nil
	}
	e.heap = append(e.heap, en)
	e.up(len(e.heap)-1, en)
	return nil
}

// Cancel drops id's pending completion. Canceling an id with none pending is
// a no-op.
func (e *Engine) Cancel(id int) {
	if i := e.pos[id]; i >= 0 {
		e.remove(int(i))
	}
}

// Pending reports id's pending completion time and sequence number.
func (e *Engine) Pending(id int) (t float64, seq uint64, ok bool) {
	i := e.pos[id]
	if i < 0 {
		return 0, 0, false
	}
	en := e.heap[i]
	return en.time, en.seq, true
}

// Stop halts Run after the currently executing completion returns.
func (e *Engine) Stop() { e.stopped = true }

// Run executes completions in (time, sequence) order until the next one lies
// beyond horizon, none is pending, or Stop is called. A completion stops
// being pending before fire runs, so Pending reports it gone and fire may
// schedule the same id again. Its entry keeps the root slot until fire
// returns, for the first id fire schedules that is not pending, and is
// removed then if no such id came. fire must not call Reset or ResumeAt,
// since Reset clears the slot flag. The clock is left at max(horizon, last
// completion time); completions beyond the horizon stay pending. Run returns
// the number it executed.
func (e *Engine) Run(horizon float64, fire func(id int, now float64)) uint64 {
	if math.IsNaN(horizon) || horizon < e.now {
		return 0
	}
	e.stopped = false
	executed := uint64(0)
	for !e.stopped && len(e.heap) > 0 && e.heap[0].time <= horizon {
		top := e.heap[0]
		e.pos[top.id] = -1
		e.open = true
		e.now = top.time
		e.fired++
		executed++
		fire(int(top.id), e.now)
		if e.open {
			e.open = false
			e.remove(0)
		}
	}
	if e.now < horizon {
		e.now = horizon
	}
	return executed
}

// ResumeAt prepares the engine to continue a checkpointed run: pending
// completions are dropped, the clock is set to t, and the fired counter to
// fired. It is the restore counterpart of the SAN simulator's snapshot
// support; the caller re-schedules the pending completions afterwards at
// their recorded absolute times, in their recorded sequence order.
func (e *Engine) ResumeAt(t float64, fired uint64) error {
	if math.IsNaN(t) || t < 0 {
		return fmt.Errorf("des: invalid resume time %v", t)
	}
	e.Reset()
	e.now = t
	e.fired = fired
	return nil
}

// Reset drops every pending completion and returns the clock, the sequence
// numbers and the fired counter to 0 so the engine can run another
// replication. It keeps its storage.
func (e *Engine) Reset() {
	for _, en := range e.heap {
		e.pos[en.id] = -1
	}
	e.heap = e.heap[:0]
	e.now = 0
	e.seq = 0
	e.stopped = false
	e.open = false
	e.fired = 0
}

// remove deletes the entry at heap index i.
func (e *Engine) remove(i int) {
	e.pos[e.heap[i].id] = -1
	last := len(e.heap) - 1
	en := e.heap[last]
	e.heap = e.heap[:last]
	if i < last {
		e.fix(i, en)
	}
}

// fix places en at heap index i, whose previous entry is gone, and restores
// the heap order with one sift.
func (e *Engine) fix(i int, en entry) {
	if i > 0 && en.before(e.heap[(i-1)/arity]) {
		e.up(i, en)
	} else {
		e.down(i, en)
	}
}

// up sifts en from index i towards the root.
func (e *Engine) up(i int, en entry) {
	for i > 0 {
		p := (i - 1) / arity
		if !en.before(e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		e.pos[e.heap[i].id] = int32(i)
		i = p
	}
	e.heap[i] = en
	e.pos[en.id] = int32(i)
}

// down sifts en from index i towards the leaves.
func (e *Engine) down(i int, en entry) {
	n := len(e.heap)
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		best := c
		for k := c + 1; k < c+arity && k < n; k++ {
			if e.heap[k].before(e.heap[best]) {
				best = k
			}
		}
		if !e.heap[best].before(en) {
			break
		}
		e.heap[i] = e.heap[best]
		e.pos[e.heap[i].id] = int32(i)
		i = best
	}
	e.heap[i] = en
	e.pos[en.id] = int32(i)
}
