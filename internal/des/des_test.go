package des

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	mustSchedule := func(at float64, name string) {
		t.Helper()
		if _, err := e.Schedule(at, func(float64) { order = append(order, name) }); err != nil {
			t.Fatal(err)
		}
	}
	mustSchedule(5, "c")
	mustSchedule(1, "a")
	mustSchedule(3, "b")
	n := e.Run(10)
	if n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	if got := []string{"a", "b", "c"}; !equal(order, got) {
		t.Errorf("order = %v, want %v", order, got)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %v, want 10 (horizon)", e.Now())
	}
}

func equal(a, b []string) bool {
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

func TestTieBreakBySeq(t *testing.T) {
	e := NewEngine()
	var order []string
	add := func(at float64, name string) {
		if _, err := e.Schedule(at, func(float64) { order = append(order, name) }); err != nil {
			t.Fatal(err)
		}
	}
	add(2, "first")
	add(2, "second")
	add(1, "earlier")
	add(2, "third")
	e.Run(10)
	want := []string{"earlier", "first", "second", "third"}
	if !equal(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestScheduleErrors(t *testing.T) {
	e := NewEngine()
	if _, err := e.Schedule(1, nil); err != ErrNilHandler {
		t.Errorf("nil handler error = %v, want ErrNilHandler", err)
	}
	if _, err := e.Schedule(math.NaN(), func(float64) {}); err == nil {
		t.Error("NaN time accepted")
	}
	e.Schedule(5, func(float64) {})
	e.Run(10)
	if _, err := e.Schedule(3, func(float64) {}); err == nil {
		t.Error("past event accepted")
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev, err := e.Schedule(1, func(float64) { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	e.Cancel(ev)
	// Cancel removes the event from the heap immediately.
	if n := len(e.queue); n != 0 {
		t.Errorf("queue holds %d events immediately after Cancel, want 0", n)
	}
	e.Cancel(ev) // double-cancel is a no-op
	e.Cancel(nil)
	if n := e.Run(10); n != 0 {
		t.Errorf("Run executed %d events after cancel, want 0", n)
	}
	if fired {
		t.Error("canceled event fired")
	}
	if !ev.Canceled() {
		t.Error("Canceled() = false after cancel")
	}
}

func TestCancelFromHandler(t *testing.T) {
	e := NewEngine()
	var later *Event
	fired := false
	later, _ = e.Schedule(5, func(float64) { fired = true })
	e.Schedule(1, func(float64) { e.Cancel(later) })
	e.Run(10)
	if fired {
		t.Error("event canceled from another handler still fired")
	}
}

func TestScheduleAfterAndNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []float64
	var chain func(now float64)
	count := 0
	chain = func(now float64) {
		times = append(times, now)
		count++
		if count < 5 {
			if _, err := e.ScheduleAfter(2, chain); err != nil {
				t.Errorf("nested ScheduleAfter: %v", err)
			}
		}
	}
	e.ScheduleAfter(1, chain)
	e.Run(100)
	want := []float64{1, 3, 5, 7, 9}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-12 {
			t.Errorf("times[%d] = %v, want %v", i, times[i], want[i])
		}
	}
}

func TestRunHorizonLeavesFutureEvents(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1, func(float64) { fired++ })
	e.Schedule(20, func(float64) { fired++ })
	e.Run(10)
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (event beyond horizon must not run)", fired)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %v, want 10", e.Now())
	}
	// Continue past the horizon.
	e.Run(30)
	if fired != 2 {
		t.Errorf("fired = %d after extending horizon, want 2", fired)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1, func(float64) { fired++; e.Stop() })
	e.Schedule(2, func(float64) { fired++ })
	e.Run(10)
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (Stop should halt the run)", fired)
	}
}

// TestStepAndCounters steps a run one horizon at a time and checks the clock
// and the fired-event counter after each step.
func TestStepAndCounters(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func(float64) {})
	e.Schedule(2, func(float64) {})
	if n := e.Run(1); n != 1 {
		t.Fatalf("Run(1) executed %d events, want 1", n)
	}
	if e.Now() != 1 {
		t.Errorf("Now = %v, want 1", e.Now())
	}
	if e.Fired() != 1 {
		t.Errorf("Fired = %d, want 1", e.Fired())
	}
	e.Run(2)
	if n := e.Run(3); n != 0 || e.Fired() != 2 {
		t.Errorf("Run(3) executed %d events with an empty queue; Fired = %d, want 2", n, e.Fired())
	}
}

func TestReset(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func(float64) {})
	e.Run(10)
	e.Reset()
	if e.Now() != 0 || len(e.queue) != 0 || e.Fired() != 0 {
		t.Errorf("Reset left state: now=%v pending=%d fired=%d", e.Now(), len(e.queue), e.Fired())
	}
	// Engine is reusable after reset.
	fired := false
	e.Schedule(1, func(float64) { fired = true })
	e.Run(2)
	if !fired {
		t.Error("engine unusable after Reset")
	}
}

func TestRunWithInvalidHorizon(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func(float64) {})
	if n := e.Run(math.NaN()); n != 0 {
		t.Errorf("Run(NaN) executed %d events", n)
	}
	e.Run(5)
	if n := e.Run(1); n != 0 {
		t.Errorf("Run with horizon before now executed %d events", n)
	}
}

// Property: events always fire in non-decreasing time order regardless of the
// insertion order.
func TestQuickEventOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		e := NewEngine()
		var valid []float64
		for _, r := range raw {
			v := math.Abs(r)
			if math.IsNaN(v) || math.IsInf(v, 0) || v > 1e9 {
				continue
			}
			valid = append(valid, v)
		}
		var fired []float64
		for _, v := range valid {
			v := v
			if _, err := e.Schedule(v, func(now float64) { fired = append(fired, now) }); err != nil {
				return false
			}
		}
		e.Run(math.Inf(1))
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

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(float64(j%97), func(float64) {})
		}
		e.Run(1000)
	}
}

func TestResumeAt(t *testing.T) {
	e := NewEngine()
	if _, err := e.Schedule(1, func(float64) {}); err != nil {
		t.Fatal(err)
	}
	if err := e.ResumeAt(5, 42); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 5 || e.Fired() != 42 || len(e.queue) != 0 {
		t.Errorf("after ResumeAt: now=%v fired=%d pending=%d", e.Now(), e.Fired(), len(e.queue))
	}
	// Events re-scheduled at absolute times relative to the restored clock.
	fired := 0.0
	if _, err := e.Schedule(7, func(now float64) { fired = now }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Schedule(4, func(float64) {}); err == nil {
		t.Error("scheduling before the restored clock accepted")
	}
	e.Run(10)
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
