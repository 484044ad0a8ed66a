// Package des provides the discrete-event simulation core of the
// stochastic-activity-network simulator: a future-event list implemented as a
// binary heap, a simulation clock, and cancellable event handles.
//
// Time is a float64 in hours, consistent with the rest of the repository.
package des

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
)

// Handler is the callback invoked when an event fires. The engine passes the
// event's scheduled time (which equals the current clock).
type Handler func(now float64)

// Event is a scheduled occurrence. Events are ordered by time, then by
// insertion sequence for determinism.
type Event struct {
	time     float64
	seq      uint64
	index    int // heap index, -1 once removed
	handler  Handler
	canceled bool
}

// Time returns the time at which the event is scheduled to fire.
func (e *Event) Time() float64 { return e.time }

// Sequence returns the engine-assigned insertion sequence, the tiebreaker
// among events scheduled at the same time. Checkpointing code records it so
// a restored run re-schedules tied events in their original relative order.
func (e *Event) Sequence() uint64 { return e.seq }

// Canceled reports whether the event has been canceled.
func (e *Event) Canceled() bool { return e.canceled }

// eventHeap implements heap.Interface over events.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x interface{}) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is a single-threaded discrete-event engine. It is not safe for
// concurrent use; run one Engine per replication (optionally in parallel
// goroutines, each with its own Engine).
type Engine struct {
	now     float64
	queue   eventHeap
	seq     uint64
	stopped bool
	events  uint64 // fired events, for diagnostics

	// slab batches Event allocations. Simulations that reschedule heavily
	// (marking-dependent delays resampled on every rate change) create many
	// short-lived events; carving them out of chunks instead of one
	// allocation each keeps the scheduling hot path off the allocator.
	// Events are never reused, so handles stay valid after firing or
	// cancellation exactly as before.
	slab []Event
}

// newEvent carves one event out of the current slab.
func (e *Engine) newEvent() *Event {
	if len(e.slab) == 0 {
		e.slab = make([]Event, 256)
	}
	ev := &e.slab[0]
	e.slab = e.slab[1:]
	return ev
}

// Common scheduling errors.
var (
	ErrPastEvent  = errors.New("des: cannot schedule an event in the past")
	ErrNilHandler = errors.New("des: nil event handler")
)

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time in hours.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.events }

// Schedule registers handler to run at absolute time t. Events at the same
// time fire in the order they were scheduled.
func (e *Engine) Schedule(t float64, handler Handler) (*Event, error) {
	if handler == nil {
		return nil, ErrNilHandler
	}
	if math.IsNaN(t) {
		return nil, fmt.Errorf("des: NaN event time")
	}
	if t < e.now {
		return nil, fmt.Errorf("%w: t=%v now=%v", ErrPastEvent, t, e.now)
	}
	ev := e.newEvent()
	*ev = Event{time: t, seq: e.seq, handler: handler}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev, nil
}

// ScheduleAfter registers handler to run delay hours from now.
func (e *Engine) ScheduleAfter(delay float64, handler Handler) (*Event, error) {
	return e.Schedule(e.now+delay, handler)
}

// Cancel marks the event so it will not fire. Canceling an already-fired or
// already-canceled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled {
		return
	}
	ev.canceled = true
	if ev.index >= 0 {
		heap.Remove(&e.queue, ev.index)
		ev.index = -1
	}
}

// Stop halts Run after the currently executing event handler returns.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in time order until the clock would exceed horizon, the
// event list empties, or Stop is called. The clock is left at
// min(horizon, last event time); if events remain beyond the horizon they are
// not executed. Run returns the number of events executed.
func (e *Engine) Run(horizon float64) uint64 {
	if math.IsNaN(horizon) || horizon < e.now {
		return 0
	}
	e.stopped = false
	executed := uint64(0)
	for !e.stopped {
		// Peek for horizon check.
		var next *Event
		for len(e.queue) > 0 {
			if e.queue[0].canceled {
				heap.Pop(&e.queue)
				continue
			}
			next = e.queue[0]
			break
		}
		if next == nil || next.time > horizon {
			break
		}
		heap.Pop(&e.queue)
		e.now = next.time
		e.events++
		executed++
		next.handler(e.now)
	}
	if e.now < horizon {
		e.now = horizon
	}
	return executed
}

// ResumeAt prepares the engine to continue a checkpointed run: the pending
// queue is cleared, the clock is set to t, and the fired-event counter to
// fired. It is the restore counterpart of the SAN simulator's snapshot
// support; the caller re-schedules the pending events afterwards at their
// recorded absolute times.
func (e *Engine) ResumeAt(t float64, fired uint64) error {
	if math.IsNaN(t) || t < 0 {
		return fmt.Errorf("des: invalid resume time %v", t)
	}
	e.Reset()
	e.now = t
	e.events = fired
	return nil
}

// Reset clears all pending events and returns the clock to 0 so the engine
// can be reused for another replication.
func (e *Engine) Reset() {
	e.queue = e.queue[:0]
	e.now = 0
	e.seq = 0
	e.stopped = false
	e.events = 0
}
