package des

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// record returns a fire callback that appends each fired id's name to order.
func record(order *[]string, names ...string) func(int, float64) {
	return func(id int, _ float64) { *order = append(*order, names[id]) }
}

func mustSchedule(t *testing.T, e *Engine, id int, at float64) {
	t.Helper()
	if err := e.Schedule(id, at); err != nil {
		t.Fatal(err)
	}
}

func noop(int, float64) {}

func TestScheduleAndRunOrder(t *testing.T) {
	e := NewEngine(3)
	var order []string
	mustSchedule(t, e, 2, 5)
	mustSchedule(t, e, 0, 1)
	mustSchedule(t, e, 1, 3)
	n := e.Run(10, record(&order, "a", "b", "c"))
	if n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	if got := []string{"a", "b", "c"}; !reflect.DeepEqual(order, got) {
		t.Errorf("order = %v, want %v", order, got)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %v, want 10 (horizon)", e.Now())
	}
}

func TestTieBreakBySeq(t *testing.T) {
	e := NewEngine(4)
	var order []string
	mustSchedule(t, e, 0, 2)
	mustSchedule(t, e, 1, 2)
	mustSchedule(t, e, 2, 1)
	mustSchedule(t, e, 3, 2)
	e.Run(10, record(&order, "first", "second", "earlier", "third"))
	want := []string{"earlier", "first", "second", "third"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

// TestRescheduleTakesNextSequence reschedules a pending id: the completion
// moves in place and fires after every completion already pending at its new
// time, as a cancel followed by a schedule would.
func TestRescheduleTakesNextSequence(t *testing.T) {
	e := NewEngine(3)
	var order []string
	mustSchedule(t, e, 0, 1)
	mustSchedule(t, e, 1, 2)
	mustSchedule(t, e, 2, 2)
	_, before, _ := e.Pending(0)
	mustSchedule(t, e, 0, 2)
	at, seq, ok := e.Pending(0)
	if !ok || at != 2 || seq <= before {
		t.Errorf("Pending(0) = %v, %d, %v after reschedule; want 2, > %d, true", at, seq, ok, before)
	}
	if n := len(e.heap); n != 3 {
		t.Errorf("heap holds %d entries, want 3 (reschedule replaces in place)", n)
	}
	e.Run(10, record(&order, "moved", "b", "c"))
	if want := []string{"b", "c", "moved"}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestScheduleErrors(t *testing.T) {
	e := NewEngine(2)
	if err := e.Schedule(0, math.NaN()); err == nil {
		t.Error("NaN time accepted")
	}
	mustSchedule(t, e, 0, 5)
	e.Run(10, noop)
	mustSchedule(t, e, 1, 12)
	if err := e.Schedule(1, 3); !errors.Is(err, ErrPastEvent) {
		t.Errorf("past event error = %v, want ErrPastEvent", err)
	}
	// A failed Schedule leaves the pending completion as it was.
	if at, seq, ok := e.Pending(1); !ok || at != 12 || seq != 1 {
		t.Errorf("Pending(1) = %v, %d, %v after a failed reschedule; want 12, 1, true", at, seq, ok)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(2)
	fired := false
	mustSchedule(t, e, 0, 1)
	e.Cancel(0)
	// Cancel removes the completion from the heap immediately.
	if n := len(e.heap); n != 0 {
		t.Errorf("queue holds %d events immediately after Cancel, want 0", n)
	}
	e.Cancel(0) // double-cancel is a no-op
	e.Cancel(1) // so is canceling an id that was never scheduled
	if n := e.Run(10, func(int, float64) { fired = true }); n != 0 {
		t.Errorf("Run executed %d events after cancel, want 0", n)
	}
	if fired {
		t.Error("canceled event fired")
	}
	if _, _, ok := e.Pending(0); ok {
		t.Error("Pending(0) = true after cancel")
	}
}

func TestCancelFromHandler(t *testing.T) {
	e := NewEngine(2)
	fired := false
	mustSchedule(t, e, 1, 5)
	mustSchedule(t, e, 0, 1)
	e.Run(10, func(id int, _ float64) {
		if id == 0 {
			e.Cancel(1)
		} else {
			fired = true
		}
	})
	if fired {
		t.Error("event canceled from another handler still fired")
	}
}

// TestNestedScheduling re-schedules the firing id from its own completion:
// the completion is no longer pending when fire runs, so this adds a new one,
// which takes the firing completion's slot.
func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var times []float64
	mustSchedule(t, e, 0, 1)
	e.Run(100, func(id int, now float64) {
		times = append(times, now)
		if len(times) < 5 {
			if err := e.Schedule(id, now+2); err != nil {
				t.Errorf("nested Schedule: %v", err)
			}
		}
	})
	want := []float64{1, 3, 5, 7, 9}
	if !reflect.DeepEqual(times, want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
}

func TestRunHorizonLeavesFutureEvents(t *testing.T) {
	e := NewEngine(2)
	fired := 0
	count := func(int, float64) { fired++ }
	mustSchedule(t, e, 0, 1)
	mustSchedule(t, e, 1, 20)
	e.Run(10, count)
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (event beyond horizon must not run)", fired)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %v, want 10", e.Now())
	}
	// Continue past the horizon.
	e.Run(30, count)
	if fired != 2 {
		t.Errorf("fired = %d after extending horizon, want 2", fired)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(2)
	fired := 0
	mustSchedule(t, e, 0, 1)
	mustSchedule(t, e, 1, 2)
	e.Run(10, func(id int, _ float64) {
		fired++
		if id == 0 {
			e.Stop()
		}
	})
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (Stop should halt the run)", fired)
	}
}

// TestStepAndCounters steps a run one horizon at a time and checks the clock
// and the fired-event counter after each step.
func TestStepAndCounters(t *testing.T) {
	e := NewEngine(2)
	mustSchedule(t, e, 0, 1)
	mustSchedule(t, e, 1, 2)
	if n := e.Run(1, noop); n != 1 {
		t.Fatalf("Run(1) executed %d events, want 1", n)
	}
	if e.Now() != 1 {
		t.Errorf("Now = %v, want 1", e.Now())
	}
	if e.Fired() != 1 {
		t.Errorf("Fired = %d, want 1", e.Fired())
	}
	e.Run(2, noop)
	if n := e.Run(3, noop); n != 0 || e.Fired() != 2 {
		t.Errorf("Run(3) executed %d events with an empty queue; Fired = %d, want 2", n, e.Fired())
	}
}

func TestReset(t *testing.T) {
	e := NewEngine(2)
	mustSchedule(t, e, 0, 5)
	mustSchedule(t, e, 1, 20)
	e.Run(10, noop)
	e.Reset()
	if e.Now() != 0 || len(e.heap) != 0 || e.Fired() != 0 {
		t.Errorf("Reset left state: now=%v pending=%d fired=%d", e.Now(), len(e.heap), e.Fired())
	}
	if _, _, ok := e.Pending(1); ok {
		t.Error("Reset left id 1 pending")
	}
	// Engine is reusable after reset, and sequence numbers restart at 0.
	fired := false
	mustSchedule(t, e, 1, 1)
	if _, seq, _ := e.Pending(1); seq != 0 {
		t.Errorf("first sequence after Reset = %d, want 0", seq)
	}
	e.Run(2, func(int, float64) { fired = true })
	if !fired {
		t.Error("engine unusable after Reset")
	}
}

func TestRunWithInvalidHorizon(t *testing.T) {
	e := NewEngine(1)
	mustSchedule(t, e, 0, 1)
	if n := e.Run(math.NaN(), noop); n != 0 {
		t.Errorf("Run(NaN) executed %d events", n)
	}
	e.Run(5, noop)
	if n := e.Run(1, noop); n != 0 {
		t.Errorf("Run with horizon before now executed %d events", n)
	}
}

// Property: events always fire in non-decreasing time order regardless of the
// insertion order.
func TestQuickEventOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		var valid []float64
		for _, r := range raw {
			v := math.Abs(r)
			if math.IsNaN(v) || math.IsInf(v, 0) || v > 1e9 {
				continue
			}
			valid = append(valid, v)
		}
		e := NewEngine(len(valid))
		var fired []float64
		for id, v := range valid {
			if err := e.Schedule(id, v); err != nil {
				return false
			}
		}
		e.Run(math.Inf(1), func(_ int, now float64) { fired = append(fired, now) })
		if len(fired) != len(valid) {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResumeAt(t *testing.T) {
	e := NewEngine(2)
	mustSchedule(t, e, 0, 1)
	if err := e.ResumeAt(5, 42); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 5 || e.Fired() != 42 || len(e.heap) != 0 {
		t.Errorf("after ResumeAt: now=%v fired=%d pending=%d", e.Now(), e.Fired(), len(e.heap))
	}
	// Events re-scheduled at absolute times relative to the restored clock.
	fired := 0.0
	mustSchedule(t, e, 0, 7)
	if err := e.Schedule(1, 4); err == nil {
		t.Error("scheduling before the restored clock accepted")
	}
	e.Run(10, func(id int, now float64) {
		if id == 0 {
			fired = now
		}
	})
	if fired != 7 || e.Fired() != 43 {
		t.Errorf("fired=%v events=%d", fired, e.Fired())
	}
	if err := e.ResumeAt(-1, 0); err == nil {
		t.Error("negative resume time accepted")
	}
	if err := e.ResumeAt(math.NaN(), 0); err == nil {
		t.Error("NaN resume time accepted")
	}
}

// queue is the surface the differential test drives: *Engine, or the
// reference engine behind refQueue.
type queue interface {
	Schedule(id int, t float64) error
	Cancel(id int)
	Pending(id int) (float64, uint64, bool)
	Run(horizon float64, fire func(id int, now float64)) uint64
	Now() float64
	Fired() uint64
	Stop()
	ResumeAt(t float64, fired uint64) error
}

// refQueue keeps at most one pending reference event per id, the bookkeeping
// the simulator did before the engine was indexed by activity: rescheduling
// a pending id cancels its event and schedules a new one.
type refQueue struct {
	e        *refEngine
	evs      []*refEvent
	handlers []refHandler
	fire     func(id int, now float64)
}

func newRefQueue(n int) *refQueue {
	q := &refQueue{e: newRefEngine(), evs: make([]*refEvent, n), handlers: make([]refHandler, n)}
	for id := range q.handlers {
		q.handlers[id] = func(now float64) {
			q.evs[id] = nil
			q.fire(id, now)
		}
	}
	return q
}

func (q *refQueue) Schedule(id int, t float64) error {
	ev, err := q.e.Schedule(t, q.handlers[id])
	if err != nil {
		return err
	}
	q.e.Cancel(q.evs[id])
	q.evs[id] = ev
	return nil
}

func (q *refQueue) Cancel(id int) {
	q.e.Cancel(q.evs[id])
	q.evs[id] = nil
}

func (q *refQueue) Pending(id int) (float64, uint64, bool) {
	if ev := q.evs[id]; ev != nil {
		return ev.time, ev.seq, true
	}
	return 0, 0, false
}

func (q *refQueue) Run(horizon float64, fire func(int, float64)) uint64 {
	q.fire = fire
	return q.e.Run(horizon)
}

func (q *refQueue) Now() float64  { return q.e.Now() }
func (q *refQueue) Fired() uint64 { return q.e.Fired() }
func (q *refQueue) Stop()         { q.e.Stop() }

func (q *refQueue) ResumeAt(t float64, fired uint64) error {
	if err := q.e.ResumeAt(t, fired); err != nil {
		return err
	}
	clear(q.evs)
	return nil
}

// drive runs one random script against q and returns everything observable:
// each firing with its time, each call's result, and after every step the
// clock, the fired counter and every id's pending entry. Inside fire it also
// logs the pending entries of the firing id and of one random id, and its
// actions reach the engine's open root slot: filled by the firing id or by
// another id that is not pending, a pending id rescheduled or canceled
// while it is open, and Stop with it unfilled. Times lie on a grid of half
// hours, so completions tie often.
func drive(q queue, n int, seed uint64) []string {
	r := rng.NewStream(seed, "des-differential")
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	grid := func(max int) float64 { return float64(r.Intn(max+1)) / 2 }
	schedule := func(id int, t float64) {
		err := q.Schedule(id, t)
		logf("schedule %d %v: %v", id, t, err != nil)
	}
	pending := func(id int) {
		t, seq, ok := q.Pending(id)
		logf("in fire, pending %d: %v seq %d %v", id, t, seq, ok)
	}
	fire := func(id int, now float64) {
		logf("fire %d at %v", id, now)
		pending(id)
		pending(r.Intn(n))
		for k := r.Intn(3); k > 0; k-- {
			switch r.Intn(7) {
			case 0, 1:
				schedule(id, now+grid(4)) // re-enable the firing activity
			case 2:
				schedule(r.Intn(n), now+grid(4))
			case 3:
				q.Cancel(r.Intn(n))
			case 4:
				schedule(r.Intn(n), now-0.5) // in the past: must fail
			case 5:
				if r.Intn(4) == 0 {
					q.Stop()
				}
			case 6:
				// Schedule the first id after the firing one that is
				// not pending, if there is one.
				for j := 1; j < n; j++ {
					other := (id + j) % n
					if _, _, ok := q.Pending(other); !ok {
						schedule(other, now+grid(4))
						break
					}
				}
			}
		}
	}
	for step := 0; step < 60; step++ {
		switch r.Intn(8) {
		case 0, 1, 2:
			schedule(r.Intn(n), q.Now()+grid(6))
		case 3:
			q.Cancel(r.Intn(n))
		case 4, 5:
			horizon := q.Now() + grid(6)
			if r.Intn(8) == 0 {
				horizon = math.Inf(1)
			}
			logf("run %v: %d", horizon, q.Run(horizon, fire))
		case 6:
			logf("run before now: %d", q.Run(q.Now()-1, fire))
		case 7:
			if r.Intn(3) == 0 && !math.IsInf(q.Now(), 0) {
				err := q.ResumeAt(q.Now()+grid(2), q.Fired()+uint64(r.Intn(3)))
				logf("resume: %v", err)
			}
		}
		logf("now %v fired %d", q.Now(), q.Fired())
		for id := 0; id < n; id++ {
			if t, seq, ok := q.Pending(id); ok {
				logf("pending %d: %v seq %d", id, t, seq)
			}
		}
	}
	return log
}

// TestEngineMatchesReference drives the engine and the reference binary heap
// through the same random interleavings of schedule, reschedule, cancel, Run
// to random horizons, Stop from inside fire and ResumeAt, and requires the
// same firings, results, clocks, counters and pending entries.
func TestEngineMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		n := 1 + int(seed%9)
		got := drive(NewEngine(n), n, seed)
		want := drive(newRefQueue(n), n, seed)
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: step %d: engine %q, reference %q", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: engine logged %d lines, reference %d", seed, len(got), len(want))
		}
	}
}

// BenchmarkHold measures the engine's cost per firing on the hold model of
// event-set studies: 4,096 completions stay pending at exponential gaps, and
// each firing schedules one new completion of its own id. One op is one
// firing.
func BenchmarkHold(b *testing.B) {
	const n = 4096
	r := rng.NewStream(1, "des-hold")
	gap := func() float64 { return -math.Log(r.OpenFloat64()) * n }
	e := NewEngine(n)
	for id := range n {
		if err := e.Schedule(id, gap()); err != nil {
			b.Fatal(err)
		}
	}
	fire := func(id int, now float64) {
		if err := e.Schedule(id, now+gap()); err != nil {
			b.Fatal(err)
		}
		e.Stop()
	}
	for b.Loop() {
		e.Run(math.Inf(1), fire)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine(1000)
	for b.Loop() {
		e.Reset()
		for j := 0; j < 1000; j++ {
			if err := e.Schedule(j, float64(j%97)); err != nil {
				b.Fatal(err)
			}
		}
		e.Run(1000, noop)
	}
}
