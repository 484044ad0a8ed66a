package des

// The reference engine: the binary heap of *refEvent pointers the simulator
// used before the activity-indexed queue, kept verbatim (types renamed so they
// do not clash) as the oracle TestEngineMatchesReference diffs against.

import (
	"container/heap"
	"fmt"
	"math"
)

// refHandler is the callback invoked when an event fires. The engine passes
// the event's scheduled time (which equals the current clock).
type refHandler func(now float64)

// refEvent is a scheduled occurrence. Events are ordered by time, then by
// insertion sequence for determinism.
type refEvent struct {
	time     float64
	seq      uint64
	index    int // heap index, -1 once removed
	handler  refHandler
	canceled bool
}

// refEventHeap implements heap.Interface over events.
type refEventHeap []*refEvent

func (h refEventHeap) Len() int { return len(h) }

func (h refEventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h refEventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refEventHeap) Push(x interface{}) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *refEventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// refEngine is a single-threaded discrete-event engine.
type refEngine struct {
	now     float64
	queue   refEventHeap
	seq     uint64
	stopped bool
	events  uint64 // fired events, for diagnostics

	// slab batches Event allocations. Events are never reused, so handles
	// stay valid after firing or cancellation.
	slab []refEvent
}

// newEvent carves one event out of the current slab.
func (e *refEngine) newEvent() *refEvent {
	if len(e.slab) == 0 {
		e.slab = make([]refEvent, 256)
	}
	ev := &e.slab[0]
	e.slab = e.slab[1:]
	return ev
}

func newRefEngine() *refEngine {
	return &refEngine{}
}

func (e *refEngine) Now() float64 { return e.now }

func (e *refEngine) Fired() uint64 { return e.events }

// Schedule registers handler to run at absolute time t. Events at the same
// time fire in the order they were scheduled.
func (e *refEngine) Schedule(t float64, handler refHandler) (*refEvent, error) {
	if handler == nil {
		return nil, fmt.Errorf("des: nil event handler")
	}
	if math.IsNaN(t) {
		return nil, fmt.Errorf("des: NaN event time")
	}
	if t < e.now {
		return nil, fmt.Errorf("%w: t=%v now=%v", ErrPastEvent, t, e.now)
	}
	ev := e.newEvent()
	*ev = refEvent{time: t, seq: e.seq, handler: handler}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev, nil
}

// Cancel marks the event so it will not fire. Canceling an already-fired or
// already-canceled event is a no-op.
func (e *refEngine) Cancel(ev *refEvent) {
	if ev == nil || ev.canceled {
		return
	}
	ev.canceled = true
	if ev.index >= 0 {
		heap.Remove(&e.queue, ev.index)
		ev.index = -1
	}
}

func (e *refEngine) Stop() { e.stopped = true }

// Run executes events in time order until the clock would exceed horizon, the
// event list empties, or Stop is called.
func (e *refEngine) Run(horizon float64) uint64 {
	if math.IsNaN(horizon) || horizon < e.now {
		return 0
	}
	e.stopped = false
	executed := uint64(0)
	for !e.stopped {
		// Peek for horizon check.
		var next *refEvent
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

// ResumeAt clears the pending queue, sets the clock to t and the fired-event
// counter to fired.
func (e *refEngine) ResumeAt(t float64, fired uint64) error {
	if math.IsNaN(t) || t < 0 {
		return fmt.Errorf("des: invalid resume time %v", t)
	}
	e.Reset()
	e.now = t
	e.events = fired
	return nil
}

// Reset clears all pending events and returns the clock to 0.
func (e *refEngine) Reset() {
	e.queue = e.queue[:0]
	e.now = 0
	e.seq = 0
	e.stopped = false
	e.events = 0
}
