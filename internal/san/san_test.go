package san

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/rng"
)

func mustExp(t testing.TB, mean float64) dist.Exponential {
	t.Helper()
	e, err := dist.NewExponentialFromMean(mean)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustDet(t testing.TB, v float64) dist.Deterministic {
	t.Helper()
	d, err := dist.NewDeterministic(v)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// buildFailRepair constructs the canonical two-state component model:
// up --fail--> down --repair--> up.
func buildFailRepair(t testing.TB, mttf, mttr float64) (*Model, *Place) {
	t.Helper()
	m := NewModel("component")
	up := m.AddPlace("up", 1)
	down := m.AddPlace("down", 0)
	m.AddTimedActivity("fail", mustExp(t, mttf)).AddInputArc(up, 1).AddOutputArc(down, 1)
	m.AddTimedActivity("repair", mustExp(t, mttr)).AddInputArc(down, 1).AddOutputArc(up, 1)
	return m, up
}

func TestModelConstruction(t *testing.T) {
	m := NewModel("test")
	if m.Name() != "test" {
		t.Errorf("Name = %q", m.Name())
	}
	p := m.AddPlace("p", 3)
	if p.Name() != "p" || p.Initial() != 3 {
		t.Errorf("place = %q/%d", p.Name(), p.Initial())
	}
	if m.Place("p") != p || m.Place("missing") != nil {
		t.Error("Place lookup broken")
	}
	if m.NumPlaces() != 1 || len(m.Places()) != 1 {
		t.Error("place counts wrong")
	}
	a := m.AddTimedActivity("act", mustDet(t, 1))
	if m.Activity("act") != a || m.NumActivities() != 1 || len(m.Activities()) != 1 {
		t.Error("activity bookkeeping broken")
	}
	if a.Kind() != Timed || a.Kind().String() != "timed" {
		t.Errorf("Kind = %v", a.Kind())
	}
	inst := m.AddInstantaneousActivity("inst")
	if inst.Kind() != Instantaneous || inst.Kind().String() != "instantaneous" {
		t.Errorf("Kind = %v", inst.Kind())
	}
	if ActivityKind(0).String() == "timed" {
		t.Error("zero kind should not be valid")
	}
	im := m.InitialMarking()
	if len(im) != 1 || im[0] != 3 {
		t.Errorf("InitialMarking = %v", im)
	}
}

func TestDuplicateNamesRejected(t *testing.T) {
	m := NewModel("dup")
	m.AddPlace("p", 0)
	if _, err := m.AddPlaceErr("p", 0); err == nil {
		t.Error("duplicate place accepted")
	}
	if _, err := m.AddPlaceErr("neg", -1); err == nil {
		t.Error("negative initial marking accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddPlace duplicate did not panic")
			}
		}()
		m.AddPlace("p", 0)
	}()
	m.AddTimedActivity("a", mustDet(t, 1))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate activity did not panic")
			}
		}()
		m.AddTimedActivity("a", mustDet(t, 1))
	}()
}

func TestValidate(t *testing.T) {
	good, _ := buildFailRepair(t, 100, 10)
	if err := good.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}

	// Timed activity without delay.
	bad := NewModel("bad")
	bad.AddPlace("p", 1)
	bad.addActivity("nodelay", Timed, nil)
	if err := bad.Validate(); err == nil {
		t.Error("model with missing delay validated")
	}

	// Foreign place.
	other := NewModel("other")
	foreign := other.AddPlace("foreign", 0)
	m2 := NewModel("m2")
	m2.AddTimedActivity("a", mustDet(t, 1)).AddInputArc(foreign, 1)
	if err := m2.Validate(); err == nil {
		t.Error("foreign place accepted")
	}

	// Non-positive multiplicity.
	m3 := NewModel("m3")
	p3 := m3.AddPlace("p", 1)
	m3.AddTimedActivity("a", mustDet(t, 1)).AddInputArc(p3, 0)
	if err := m3.Validate(); err == nil {
		t.Error("zero multiplicity accepted")
	}

	// Case probabilities that do not sum to one.
	m4 := NewModel("m4")
	p4 := m4.AddPlace("p", 1)
	act := m4.AddTimedActivity("a", mustDet(t, 1)).AddInputArc(p4, 1)
	act.AddCase(Case{Probability: func(MarkingReader) float64 { return 0.3 }})
	act.AddCase(Case{Probability: func(MarkingReader) float64 { return 0.3 }})
	if err := m4.Validate(); err == nil {
		t.Error("case probabilities summing to 0.6 accepted")
	}

	// Gate reading a foreign place.
	m5 := NewModel("m5")
	p5 := m5.AddPlace("p", 1)
	m5.AddTimedActivity("a", mustDet(t, 1)).AddInputArc(p5, 1).
		AddInputGate(&InputGate{Name: "g", Reads: []*Place{foreign}, Enabled: func(MarkingReader) bool { return true }})
	if err := m5.Validate(); err == nil {
		t.Error("gate reading foreign place accepted")
	}
}

// TestValidateProbabilityPanickingAtZeroMarking: a case probability that
// indexes a table with a place's tokens panics at the all-zero marking, which
// no firing reaches. Validate treats the activity as marking-dependent and
// skips its static case-sum check, so the model compiles and simulates.
func TestValidateProbabilityPanickingAtZeroMarking(t *testing.T) {
	m := NewModel("weighted-route")
	in := m.AddPlace("in", 1)
	weight := m.AddPlace("weight", 2)
	left := m.AddPlace("left", 0)
	right := m.AddPlace("right", 0)
	share := []float64{1, 0.25} // share of the left case at weight 1 and 2
	m.AddTimedActivity("route", mustExp(t, 1)).AddInputArc(in, 1).
		AddCase(Case{
			Probability: func(r MarkingReader) float64 { return share[r.Tokens(weight)-1] },
			OutputArcs:  []Arc{{Place: left, Mult: 1}},
		}).
		AddCase(Case{
			Probability: func(r MarkingReader) float64 { return 1 - share[r.Tokens(weight)-1] },
			OutputArcs:  []Arc{{Place: right, Mult: 1}},
		})
	sim := mustSimulator(t, m, []RewardVariable{TokenTimeAverage("left", left)}, rng.NewStream(1, "route"))
	res, err := sim.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 1 {
		t.Errorf("%d completions, want route's one", res.Events)
	}
}

// mustSimulator compiles m against rewards and returns a simulator over the
// compiled model drawing from stream.
func mustSimulator(t *testing.T, m *Model, rewards []RewardVariable, stream *rng.Stream) *Simulator {
	t.Helper()
	cm, err := Compile(m, rewards)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cm.NewSimulator(stream)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestSimulatorValidation(t *testing.T) {
	m, up := buildFailRepair(t, 100, 10)
	if _, err := Compile(nil, nil); err == nil {
		t.Error("nil model accepted")
	}
	good := []RewardVariable{UpFraction("avail", func(mr MarkingReader) bool { return mr.Tokens(up) == 1 })}
	cm, err := Compile(m, good)
	if err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	if _, err := cm.NewSimulator(nil); err == nil {
		t.Error("nil stream accepted")
	}
	if _, err := cm.NewSimulator(rng.NewStream(1, "t")); err != nil {
		t.Errorf("valid simulator rejected: %v", err)
	}
	for _, tc := range []struct {
		name    string
		rewards []RewardVariable
	}{
		{"empty reward name", []RewardVariable{{Name: "", Mode: TimeAveraged, Rate: func(MarkingReader) float64 { return 1 }}}},
		{"reward without rate or impulses", []RewardVariable{{Name: "x", Mode: TimeAveraged}}},
		{"reward without mode", []RewardVariable{{Name: "x", Rate: func(MarkingReader) float64 { return 1 }}}},
		{"impulse on unknown activity", []RewardVariable{{Name: "x", Mode: Accumulated,
			Impulses: map[string]ImpulseFunc{"nope": func(MarkingReader) float64 { return 1 }}}}},
		{"instant-of-time reward with impulses", []RewardVariable{{Name: "x", Mode: InstantAtEnd,
			Rate:     func(MarkingReader) float64 { return 1 },
			Impulses: map[string]ImpulseFunc{"fail": func(MarkingReader) float64 { return 1 }}}}},
	} {
		if _, err := Compile(m, tc.rewards); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestRunRejectsBadMission(t *testing.T) {
	m, _ := buildFailRepair(t, 100, 10)
	sim := mustSimulator(t, m, nil, rng.NewStream(1, "t"))
	for _, mission := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := sim.Run(mission); err == nil {
			t.Errorf("Run(%v) succeeded", mission)
		}
	}
}

func TestAvailabilityMatchesAnalytic(t *testing.T) {
	// Two-state model: availability = MTTF/(MTTF+MTTR) = 100/110.
	m, up := buildFailRepair(t, 100, 10)
	rewards := []RewardVariable{UpFraction("avail", func(mr MarkingReader) bool { return mr.Tokens(up) == 1 })}
	res, err := RunReplications(m, rewards, Options{Mission: 20000, Replications: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := 100.0 / 110.0
	got := res.Mean("avail")
	if math.Abs(got-want) > 0.01 {
		t.Errorf("availability = %v, want ~%v", got, want)
	}
	ci, err := res.Interval("avail")
	if err != nil {
		t.Fatal(err)
	}
	if ci.HalfWidth <= 0 || ci.HalfWidth > 0.05 {
		t.Errorf("unexpected CI half width %v", ci.HalfWidth)
	}
	if res.TotalEvents == 0 {
		t.Error("no events executed")
	}
	if _, err := res.Interval("nope"); err == nil {
		t.Error("unknown reward interval succeeded")
	}
	if !math.IsNaN(res.Mean("nope")) {
		t.Error("unknown reward mean should be NaN")
	}
}

func TestDeterministicCycleAvailability(t *testing.T) {
	// up 10h, down 5h, repeating: over a 30h mission availability = 20/30.
	m := NewModel("det")
	up := m.AddPlace("up", 1)
	down := m.AddPlace("down", 0)
	m.AddTimedActivity("fail", mustDet(t, 10)).AddInputArc(up, 1).AddOutputArc(down, 1)
	m.AddTimedActivity("repair", mustDet(t, 5)).AddInputArc(down, 1).AddOutputArc(up, 1)
	sim := mustSimulator(t, m, []RewardVariable{
		UpFraction("avail", func(mr MarkingReader) bool { return mr.Tokens(up) == 1 }),
		CompletionCount("failures", "fail"),
		{Name: "final_up", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(mr.Tokens(up)) }},
	}, rng.NewStream(3, "det"))
	res, err := sim.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rewards["avail"]; math.Abs(got-20.0/30.0) > 1e-9 {
		t.Errorf("availability = %v, want %v", got, 20.0/30.0)
	}
	if got := res.Rewards["failures"]; got != 2 {
		t.Errorf("failures = %v, want 2 (at t=10 and t=25)", got)
	}
	// Up at 15, fails again at 25, and the repair completing exactly at the
	// t=30 horizon is executed (inclusive horizon), so the component ends up.
	if got := res.Rewards["final_up"]; got != 1 {
		t.Errorf("final_up = %v, want 1", got)
	}
	if res.FinalTime != 30 {
		t.Errorf("FinalTime = %v", res.FinalTime)
	}
}

func TestSourceActivityKeepsFiring(t *testing.T) {
	// An activity with no input arcs must fire repeatedly (job arrivals).
	m := NewModel("source")
	count := m.AddPlace("count", 0)
	m.AddTimedActivity("arrive", mustDet(t, 1)).AddOutputArc(count, 1)
	sim := mustSimulator(t, m, []RewardVariable{CompletionCount("arrivals", "arrive")}, rng.NewStream(1, "src"))
	res, err := sim.Run(100.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rewards["arrivals"]; got != 100 {
		t.Errorf("arrivals = %v, want 100", got)
	}
}

func TestInputGateEnabling(t *testing.T) {
	// Activity gated on a threshold: fires only while gatePlace >= 2.
	m := NewModel("gate")
	gatePlace := m.AddPlace("level", 0)
	fired := m.AddPlace("fired", 0)
	m.AddTimedActivity("tick", mustDet(t, 1)).AddOutputArc(gatePlace, 1)
	m.AddTimedActivity("gated", mustDet(t, 0.6)).
		AddInputGate(&InputGate{
			Name:    "atLeast2",
			Reads:   []*Place{gatePlace},
			Enabled: func(mr MarkingReader) bool { return mr.Tokens(gatePlace) >= 2 },
		}).
		AddOutputArc(fired, 1)
	sim := mustSimulator(t, m, []RewardVariable{
		{Name: "fired", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(mr.Tokens(fired)) }},
	}, rng.NewStream(2, "gate"))
	res, err := sim.Run(3.5)
	if err != nil {
		t.Fatal(err)
	}
	// level reaches 2 at t=2; gated becomes enabled then and fires at 2.6 and 3.2.
	if got := res.Rewards["fired"]; got != 2 {
		t.Errorf("gated activity fired %v times, want 2", got)
	}
}

func TestInputGateTransformAndOutputGate(t *testing.T) {
	// Input gate transform drains a place; output gate sets another.
	m := NewModel("gates")
	pool := m.AddPlace("pool", 5)
	drained := m.AddPlace("drained", 0)
	flag := m.AddPlace("flag", 0)
	m.AddTimedActivity("act", mustDet(t, 1)).
		AddInputGate(&InputGate{
			Name:    "drain",
			Reads:   []*Place{pool},
			Enabled: func(mr MarkingReader) bool { return mr.Tokens(pool) > 0 },
			Transform: func(mw MarkingWriter) {
				mw.Add(drained, mw.Tokens(pool))
				mw.SetTokens(pool, 0)
			},
		}).
		AddOutputGate(&OutputGate{Name: "setFlag", Transform: func(mw MarkingWriter) { mw.SetTokens(flag, 1) }})
	sim := mustSimulator(t, m, []RewardVariable{
		{Name: "drained", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(mr.Tokens(drained)) }},
		{Name: "flag", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(mr.Tokens(flag)) }},
	}, rng.NewStream(4, "gates"))
	res, err := sim.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rewards["drained"] != 5 || res.Rewards["flag"] != 1 {
		t.Errorf("rewards = %v, want drained=5 flag=1", res.Rewards)
	}
}

func TestCasesSplitProbability(t *testing.T) {
	// 30/70 split between two cases, verified against completion counts.
	m := NewModel("cases")
	left := m.AddPlace("left", 0)
	right := m.AddPlace("right", 0)
	act := m.AddTimedActivity("branch", mustDet(t, 1))
	act.AddCase(Case{
		Probability: func(MarkingReader) float64 { return 0.3 },
		OutputArcs:  []Arc{{Place: left, Mult: 1}},
	})
	act.AddCase(Case{
		Probability: func(MarkingReader) float64 { return 0.7 },
		OutputArcs:  []Arc{{Place: right, Mult: 1}},
	})
	sim := mustSimulator(t, m, []RewardVariable{
		{Name: "left", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(mr.Tokens(left)) }},
		{Name: "right", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(mr.Tokens(right)) }},
	}, rng.NewStream(5, "cases"))
	res, err := sim.Run(20000)
	if err != nil {
		t.Fatal(err)
	}
	total := res.Rewards["left"] + res.Rewards["right"]
	if total < 19990 || total > 20000 {
		t.Fatalf("total branches = %v", total)
	}
	frac := res.Rewards["left"] / total
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("left fraction = %v, want ~0.3", frac)
	}
}

func TestNilProbabilityCaseGetsRemainder(t *testing.T) {
	m := NewModel("nilcase")
	a := m.AddPlace("a", 0)
	b := m.AddPlace("b", 0)
	act := m.AddTimedActivity("branch", mustDet(t, 1))
	act.AddCase(Case{
		Probability: func(MarkingReader) float64 { return 0.25 },
		OutputArcs:  []Arc{{Place: a, Mult: 1}},
	})
	act.AddCase(Case{OutputArcs: []Arc{{Place: b, Mult: 1}}}) // remainder: 0.75
	sim := mustSimulator(t, m, []RewardVariable{
		{Name: "a", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(mr.Tokens(a)) }},
		{Name: "b", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(mr.Tokens(b)) }},
	}, rng.NewStream(6, "nilcase"))
	res, err := sim.Run(10000)
	if err != nil {
		t.Fatal(err)
	}
	frac := res.Rewards["a"] / (res.Rewards["a"] + res.Rewards["b"])
	if math.Abs(frac-0.25) > 0.03 {
		t.Errorf("case-a fraction = %v, want ~0.25", frac)
	}
}

func TestInstantaneousActivity(t *testing.T) {
	// A token arriving in "trigger" is immediately moved to "sink" by an
	// instantaneous activity.
	m := NewModel("inst")
	trigger := m.AddPlace("trigger", 0)
	sink := m.AddPlace("sink", 0)
	m.AddTimedActivity("produce", mustDet(t, 2)).AddOutputArc(trigger, 1)
	m.AddInstantaneousActivity("move").AddInputArc(trigger, 1).AddOutputArc(sink, 1)
	sim := mustSimulator(t, m, []RewardVariable{
		TokenTimeAverage("avg_trigger", trigger),
		{Name: "sink", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(mr.Tokens(sink)) }},
	}, rng.NewStream(7, "inst"))
	res, err := sim.Run(10.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rewards["sink"]; got != 5 {
		t.Errorf("sink = %v, want 5", got)
	}
	if got := res.Rewards["avg_trigger"]; got != 0 {
		t.Errorf("average trigger tokens = %v, want 0 (instantaneous drain)", got)
	}
}

// buildUnstableLoop returns a model whose two instantaneous activities keep
// toggling a token in an unstable (vanishing) loop once a timed activity
// fires at t = 1.
func buildUnstableLoop(t testing.TB) *Model {
	m := NewModel("unstable")
	a := m.AddPlace("a", 1)
	b := m.AddPlace("b", 0)
	kick := m.AddPlace("kick", 0)
	m.AddTimedActivity("start", mustDet(t, 1)).AddOutputArc(kick, 1)
	m.AddInstantaneousActivity("ab").AddInputArc(a, 1).AddInputArc(kick, 1).AddOutputArc(b, 1).AddOutputArc(kick, 1)
	m.AddInstantaneousActivity("ba").AddInputArc(b, 1).AddInputArc(kick, 1).AddOutputArc(a, 1).AddOutputArc(kick, 1)
	return m
}

func TestUnstableInstantaneousLoopDetected(t *testing.T) {
	// The simulator must stop on the vanishing loop rather than hang.
	sim := mustSimulator(t, buildUnstableLoop(t), nil, rng.NewStream(8, "unstable"))
	// The run terminates (does not hang) and surfaces the instability: a
	// truncated run must not masquerade as a successful replication.
	if _, err := sim.Run(10); !errors.Is(err, ErrUnstableModel) {
		t.Fatalf("Run error = %v, want ErrUnstableModel", err)
	}
}

func TestReactivation(t *testing.T) {
	// With reactivation, the delay distribution is resampled on marking
	// change. Here the delay function depends on the marking: once "boost"
	// holds a token the activity becomes much faster. Without reactivation
	// the originally sampled (slow) time would stand.
	m := NewModel("react")
	boost := m.AddPlace("boost", 0)
	done := m.AddPlace("done", 0)
	m.AddTimedActivity("boosting", mustDet(t, 1)).AddOutputArc(boost, 1)
	slowFast := m.AddTimedActivityFunc("work", func(mr MarkingReader) dist.Distribution {
		if mr.Tokens(boost) > 0 {
			return mustDet(t, 0.5)
		}
		return mustDet(t, 100)
	})
	slowFast.AddOutputArc(done, 1)
	slowFast.AddInputGate(&InputGate{
		Name:    "watchBoost",
		Reads:   []*Place{boost},
		Enabled: func(MarkingReader) bool { return true },
	})
	slowFast.SetReactivation(true)
	sim := mustSimulator(t, m, []RewardVariable{
		{Name: "done", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(mr.Tokens(done)) }},
	}, rng.NewStream(9, "react"))
	res, err := sim.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rewards["done"]; got < 1 {
		t.Errorf("done = %v, want >=1 (reactivation should speed up the activity)", got)
	}
}

func TestMarkingWriterRejectsNegative(t *testing.T) {
	m := NewModel("neg")
	p := m.AddPlace("p", 0)
	mk := newMarking(m.InitialMarking())
	defer func() {
		if recover() == nil {
			t.Error("negative SetTokens did not panic")
		}
	}()
	mk.SetTokens(p, -1)
}

func TestRunReplicationsValidation(t *testing.T) {
	m, _ := buildFailRepair(t, 100, 10)
	if _, err := RunReplications(m, nil, Options{Replications: 1}); err == nil {
		t.Error("1 replication accepted")
	}
	bad := []RewardVariable{{Name: "x", Mode: TimeAveraged}}
	if _, err := RunReplications(m, bad, Options{Replications: 4}); err == nil {
		t.Error("bad reward accepted")
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options (all defaults) rejected: %v", err)
	}
	valid := Options{Mission: 100, Replications: 4, Confidence: 0.9, Seed: 7, Parallelism: 2, PHFitTolerance: 0.1}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	invalid := map[string]Options{
		"negative mission":     {Mission: -1},
		"NaN mission":          {Mission: math.NaN()},
		"infinite mission":     {Mission: math.Inf(1)},
		"one replication":      {Replications: 1},
		"negative reps":        {Replications: -4},
		"confidence 1":         {Confidence: 1},
		"confidence above 1":   {Confidence: 1.5},
		"NaN confidence":       {Confidence: math.NaN()},
		"negative confidence":  {Confidence: -0.5},
		"negative parallelism": {Parallelism: -1},
		"negative fit tol":     {PHFitTolerance: -0.1},
		"fit tol of 1":         {PHFitTolerance: 1},
		"fit tol above 1":      {PHFitTolerance: 1.5},
		"NaN fit tol":          {PHFitTolerance: math.NaN()},
	}
	m, _ := buildFailRepair(t, 100, 10)
	for name, opts := range invalid {
		if err := opts.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, opts)
		}
		if _, err := RunReplications(m, nil, opts); err == nil {
			t.Errorf("%s: RunReplications accepted %+v", name, opts)
		}
	}
}

func TestOptionsWithDefaults(t *testing.T) {
	def := (Options{}).WithDefaults()
	if def.Mission != 8760 || def.Replications != 100 || def.Confidence != 0.95 || def.Seed != 1 || def.Parallelism < 1 {
		t.Errorf("unexpected defaults: %+v", def)
	}
	// Explicit values survive untouched.
	set := Options{Mission: 10, Replications: 3, Confidence: 0.8, Seed: 42, Parallelism: 2}
	if got := set.WithDefaults(); got != set {
		t.Errorf("WithDefaults changed explicit options: %+v", got)
	}
}

func TestSimulatorResetReproducesRun(t *testing.T) {
	m, up := buildFailRepair(t, 50, 5)
	rewards := []RewardVariable{UpFraction("avail", func(mr MarkingReader) bool { return mr.Tokens(up) == 1 })}
	const seed = 91
	sim := mustSimulator(t, m, rewards, rng.NewStream(seed, "first"))
	first, err := sim.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	// Resetting onto a stream with the same seed must replay the replication
	// bit-for-bit: Reset swaps only the stream, so any residue would be a bug.
	if err := sim.Reset(rng.NewStream(seed, "again")); err != nil {
		t.Fatal(err)
	}
	again, err := sim.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	if first.Rewards["avail"] != again.Rewards["avail"] || first.Events != again.Events {
		t.Errorf("Reset did not reproduce the run: %+v vs %+v", first, again)
	}
	// And it must match a freshly constructed simulator with the same seed.
	fresh := mustSimulator(t, m, rewards, rng.NewStream(seed, "fresh"))
	res, err := fresh.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rewards["avail"] != first.Rewards["avail"] {
		t.Errorf("Reset run diverged from fresh simulator: %v vs %v", res.Rewards["avail"], first.Rewards["avail"])
	}
	if err := sim.Reset(nil); err == nil {
		t.Error("nil stream accepted by Reset")
	}
}

func TestReplicationSeedsContract(t *testing.T) {
	opts := Options{Mission: 1000, Replications: 8, Seed: 13}
	seeds := ReplicationSeeds(opts)
	if len(seeds) != 8 {
		t.Fatalf("seeds = %d, want 8", len(seeds))
	}
	if got := ReplicationSeeds(opts); !equalSeeds(got, seeds) {
		t.Error("ReplicationSeeds not deterministic")
	}
	// Running each replication standalone with the published seeds and
	// folding the results in index order must reproduce RunReplications — the
	// contract sweep engines rely on.
	m, up := buildFailRepair(t, 50, 5)
	rewards := []RewardVariable{UpFraction("avail", func(mr MarkingReader) bool { return mr.Tokens(up) == 1 })}
	study, err := RunReplications(m, rewards, opts)
	if err != nil {
		t.Fatal(err)
	}
	manual := NewStudyResult(rewards, opts.WithDefaults())
	for rep, seed := range seeds {
		sim := mustSimulator(t, m, rewards, ReplicationStream(seed, rep))
		res, err := sim.Run(opts.Mission)
		if err != nil {
			t.Fatal(err)
		}
		manual.Add(res)
	}
	if got, want := manual.Summaries["avail"].Mean(), study.Mean("avail"); got != want {
		t.Errorf("manual reduction mean %v != RunReplications %v", got, want)
	}
	if manual.TotalEvents != study.TotalEvents {
		t.Errorf("manual events %d != study %d", manual.TotalEvents, study.TotalEvents)
	}
}

func equalSeeds(a, b []uint64) bool {
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

func TestRunReplicationsDeterministicAcrossParallelism(t *testing.T) {
	m, up := buildFailRepair(t, 50, 5)
	rewards := []RewardVariable{UpFraction("avail", func(mr MarkingReader) bool { return mr.Tokens(up) == 1 })}
	seq, err := RunReplications(m, rewards, Options{Mission: 2000, Replications: 16, Seed: 11, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunReplications(m, rewards, Options{Mission: 2000, Replications: 16, Seed: 11, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seq.Mean("avail")-par.Mean("avail")) > 1e-12 {
		t.Errorf("parallelism changed results: %v vs %v", seq.Mean("avail"), par.Mean("avail"))
	}
}

// TestRunStudiesMatchesRunReplications runs three studies — two models, one
// of them twice under different seeds — through one RunStudies call and
// checks every result against a standalone RunReplications of that study,
// bit for bit, at several worker counts.
func TestRunStudiesMatchesRunReplications(t *testing.T) {
	mA, upA := buildFailRepair(t, 50, 5)
	mB, upB := buildFailRepair(t, 20, 8)
	rewardsA := []RewardVariable{UpFraction("avail", func(mr MarkingReader) bool { return mr.Tokens(upA) == 1 })}
	rewardsB := []RewardVariable{UpFraction("avail", func(mr MarkingReader) bool { return mr.Tokens(upB) == 1 })}
	cmA, err := Compile(mA, rewardsA)
	if err != nil {
		t.Fatal(err)
	}
	cmB, err := Compile(mB, rewardsB)
	if err != nil {
		t.Fatal(err)
	}
	type input struct {
		model   *Model
		rewards []RewardVariable
		study   Study
	}
	inputs := []input{
		{mA, rewardsA, Study{Model: cmA, Options: Options{Mission: 1000, Replications: 7, Seed: 3}}},
		{mB, rewardsB, Study{Model: cmB, Options: Options{Mission: 2000, Replications: 5, Seed: 4}}},
		{mA, rewardsA, Study{Model: cmA, Options: Options{Mission: 1000, Replications: 6, Seed: 5}}},
	}
	studies := make([]Study, len(inputs))
	for i, in := range inputs {
		studies[i] = in.study
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := RunStudies(studies, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(inputs) {
			t.Fatalf("workers=%d: %d results for %d studies", workers, len(got), len(inputs))
		}
		for i, in := range inputs {
			want, err := RunReplications(in.model, in.rewards, in.study.Options)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i].Summaries, want.Summaries) || got[i].TotalEvents != want.TotalEvents {
				t.Errorf("workers=%d study %d: mean %v, %d events; standalone mean %v, %d events",
					workers, i, got[i].Mean("avail"), got[i].TotalEvents, want.Mean("avail"), want.TotalEvents)
			}
		}
	}
	if _, err := RunStudies([]Study{{Model: cmA, Options: Options{Replications: 1}}}, 2); err == nil {
		t.Error("invalid options accepted")
	}
}

// TestRunStudiesReplicationError checks that a failed replication surfaces
// as a *ReplicationError naming its study and replication and unwrapping to
// the simulator's error, from RunStudies and from RunReplications.
func TestRunStudiesReplicationError(t *testing.T) {
	stableModel, up := buildFailRepair(t, 50, 5)
	rewards := []RewardVariable{UpFraction("avail", func(mr MarkingReader) bool { return mr.Tokens(up) == 1 })}
	stable, err := Compile(stableModel, rewards)
	if err != nil {
		t.Fatal(err)
	}
	unstable, err := Compile(buildUnstableLoop(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Mission: 10, Replications: 4, Seed: 2}
	_, err = RunStudies([]Study{{Model: stable, Options: opts}, {Model: unstable, Options: opts}}, 2)
	if !errors.Is(err, ErrUnstableModel) {
		t.Fatalf("RunStudies error = %v, want ErrUnstableModel", err)
	}
	var re *ReplicationError
	if !errors.As(err, &re) || re.Study != 1 || re.Replication != 0 {
		t.Fatalf("RunStudies error = %#v, want study 1 replication 0", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "study 1 replication 0") {
		t.Errorf("error %q does not name study 1 replication 0", msg)
	}
	if _, err := RunReplications(buildUnstableLoop(t), nil, opts); !errors.Is(err, ErrUnstableModel) {
		t.Errorf("RunReplications error = %v, want ErrUnstableModel", err)
	}
}

func TestComposeHelpers(t *testing.T) {
	m := NewModel("composed")
	shared := m.AddPlace("shared/clock", 0)
	// Replicate three components that all feed the shared place.
	err := Replicate(m, "component", 3, func(m *Model, prefix string, index int) error {
		up, err := m.AddPlaceErr(Qualify(prefix, "up"), 1)
		if err != nil {
			return err
		}
		m.AddTimedActivity(Qualify(prefix, "fail"), mustDet(t, float64(index+1))).
			AddInputArc(up, 1).AddOutputArc(shared, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = Join(m, "cfs", map[string]SubmodelBuilder{
		"meta": func(m *Model, prefix string) error {
			m.AddPlace(Qualify(prefix, "up"), 1)
			return nil
		},
		"data": func(m *Model, prefix string) error {
			m.AddPlace(Qualify(prefix, "up"), 1)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Place("component[0]/up") == nil || m.Place("component[2]/up") == nil {
		t.Error("replicated places missing")
	}
	if m.Place("cfs/meta/up") == nil || m.Place("cfs/data/up") == nil {
		t.Error("joined places missing")
	}
	if err := m.Validate(); err != nil {
		t.Errorf("composed model invalid: %v", err)
	}
	if err := Replicate(m, "x", -1, nil); err == nil {
		t.Error("negative replicate count accepted")
	}
	// Builder errors propagate.
	err = Join(m, "bad", map[string]SubmodelBuilder{
		"dup": func(m *Model, prefix string) error {
			_, err := m.AddPlaceErr("shared/clock", 0)
			return err
		},
	})
	if err == nil {
		t.Error("join builder error not propagated")
	}
	if got := Qualify("", "x"); got != "x" {
		t.Errorf("Qualify empty prefix = %q", got)
	}
}

func TestCompositionTreeRendering(t *testing.T) {
	tree := NewJoinNode("CLUSTER",
		NewAtomicNode("CLIENT"),
		NewJoinNode("CFS_UNIT",
			NewAtomicNode("OSS"),
			NewAtomicNode("OSS_SAN_NW"),
			NewAtomicNode("SAN"),
			NewReplicateNode("DDN_UNITS", 2,
				NewJoinNode("DDN",
					NewAtomicNode("RAID_CONTROLLER"),
					NewReplicateNode("RAID6_TIERS", 24, NewAtomicNode("RAID6_TIER")),
				),
			),
		),
	)
	out := tree.Render()
	for _, want := range []string{"Join(CLUSTER)", "SAN(CLIENT)", "Replicate(DDN_UNITS, n=2)", "Replicate(RAID6_TIERS, n=24)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, out)
		}
	}
	leaves := tree.Leaves()
	if len(leaves) != 6 {
		t.Errorf("leaves = %v, want 6 atomic submodels", leaves)
	}
}

func TestRewardModeString(t *testing.T) {
	if TimeAveraged.String() != "time-averaged" || Accumulated.String() != "accumulated" || InstantAtEnd.String() != "instant-at-end" {
		t.Error("RewardMode strings wrong")
	}
	if RewardMode(0).String() == "time-averaged" {
		t.Error("zero mode should not alias a valid mode")
	}
}

// Property: in a closed token ring (tokens only move between places), the
// total token count is conserved and availability-style rewards stay in
// [0,1].
func TestQuickTokenConservationAndRewardBounds(t *testing.T) {
	f := func(seed uint64, nPlaces, tokens uint8) bool {
		n := int(nPlaces%5) + 2
		k := int(tokens%4) + 1
		m := NewModel("ring")
		places := make([]*Place, n)
		for i := range places {
			init := 0
			if i == 0 {
				init = k
			}
			places[i] = m.AddPlace(Qualify("p", itoa(i)), init)
		}
		for i := range places {
			next := places[(i+1)%n]
			m.AddTimedActivity(Qualify("move", itoa(i)), mustExp(t, float64(i+1))).
				AddInputArc(places[i], 1).AddOutputArc(next, 1)
		}
		total := func(mr MarkingReader) int {
			sum := 0
			for _, p := range places {
				sum += mr.Tokens(p)
			}
			return sum
		}
		rewards := []RewardVariable{
			UpFraction("frac_p0_nonempty", func(mr MarkingReader) bool { return mr.Tokens(places[0]) > 0 }),
			{Name: "final_total", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(total(mr)) }},
		}
		cm, err := Compile(m, rewards)
		if err != nil {
			return false
		}
		sim, err := cm.NewSimulator(rng.NewStream(seed, "ring"))
		if err != nil {
			return false
		}
		res, err := sim.Run(50)
		if err != nil {
			return false
		}
		if int(res.Rewards["final_total"]) != k {
			return false
		}
		frac := res.Rewards["frac_p0_nonempty"]
		return frac >= 0 && frac <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// itoa is a tiny helper converting an int to a string without importing
// strconv in every call site of the property test.
func itoa(i int) string {
	if i < 0 {
		return "-" + itoa(-i)
	}
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + string(rune('0'+i%10))
}

// TestStudyDeterministicAcrossParallelism is the regression test for the
// nondeterministic-aggregation bug: same-seed studies must be bit-identical
// regardless of Parallelism, both in the per-reward Welford summaries and in
// the event totals.
func TestStudyDeterministicAcrossParallelism(t *testing.T) {
	m, up := buildFailRepair(t, 50, 5)
	rewards := []RewardVariable{
		UpFraction("avail", func(mr MarkingReader) bool { return mr.Tokens(up) == 1 }),
		CompletionCount("repairs", "repair"),
	}
	var base *StudyResult
	for _, par := range []int{1, 4, 16} {
		res, err := RunReplications(m, rewards, Options{
			Mission: 500, Replications: 40, Seed: 99, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		res.Options.Parallelism = 0 // the only field allowed to differ
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base.Summaries, res.Summaries) {
			t.Errorf("parallelism %d changed summaries: %+v vs %+v", par, res.Summaries["avail"], base.Summaries["avail"])
		}
		if base.TotalEvents != res.TotalEvents {
			t.Errorf("parallelism %d changed TotalEvents: %d vs %d", par, res.TotalEvents, base.TotalEvents)
		}
	}
}

// buildCaseCounter returns a model whose single repeating activity selects
// between two cases with the given probability functions (nil = share the
// leftover mass), dropping a token into the corresponding counter place.
func buildCaseCounter(t testing.TB, pa, pb func(MarkingReader) float64) (*Model, *Place, *Place) {
	t.Helper()
	m := NewModel("cases")
	clock := m.AddPlace("clock", 1)
	a := m.AddPlace("a", 0)
	b := m.AddPlace("b", 0)
	act := m.AddTimedActivity("tick", mustDet(t, 1)).AddInputArc(clock, 1)
	act.AddCase(Case{Probability: pa, OutputArcs: []Arc{{Place: a, Mult: 1}, {Place: clock, Mult: 1}}})
	act.AddCase(Case{Probability: pb, OutputArcs: []Arc{{Place: b, Mult: 1}, {Place: clock, Mult: 1}}})
	return m, a, b
}

func TestSelectCaseClampsNegativeProbability(t *testing.T) {
	// A negative explicit probability must be treated as 0, so the nil case
	// absorbs the full mass and the negative case is never selected.
	m, a, b := buildCaseCounter(t, func(MarkingReader) float64 { return -0.5 }, nil)
	sim := mustSimulator(t, m, []RewardVariable{
		{Name: "a", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(mr.Tokens(a)) }},
		{Name: "b", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(mr.Tokens(b)) }},
	}, rng.NewStream(21, "neg"))
	res, err := sim.Run(200.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rewards["a"] != 0 {
		t.Errorf("negative-probability case selected %v times", res.Rewards["a"])
	}
	if res.Rewards["b"] != 200 {
		t.Errorf("nil case selected %v times, want 200", res.Rewards["b"])
	}
}

func TestSelectCaseOverUnityMassUsesRelativeWeights(t *testing.T) {
	// Explicit probabilities summing to 4 (3 + 1): the old code always chose
	// the first case because the cumulative sum reached the uniform draw
	// immediately, silently starving the tail. With over-unity mass the draw
	// is scaled to the total, so selection degrades to 3:1 relative weights.
	// Validate catches static over-unity sums, so the ill-formed values are
	// marking-dependent: well-formed in the zero-marking probe state, 3+1
	// once tokens have accumulated (every firing after the first).
	var m *Model
	var a, b *Place
	total := func(mr MarkingReader) float64 { return float64(mr.Tokens(a) + mr.Tokens(b)) }
	m, a, b = buildCaseCounter(t,
		func(mr MarkingReader) float64 {
			if total(mr) > 0 {
				return 3
			}
			return 0.75
		},
		func(mr MarkingReader) float64 {
			if total(mr) > 0 {
				return 1
			}
			return 0.25
		})
	sim := mustSimulator(t, m, []RewardVariable{
		{Name: "a", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(mr.Tokens(a)) }},
		{Name: "b", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(mr.Tokens(b)) }},
	}, rng.NewStream(22, "over"))
	res, err := sim.Run(2000.5)
	if err != nil {
		t.Fatal(err)
	}
	na, nb := res.Rewards["a"], res.Rewards["b"]
	if na+nb != 2000 {
		t.Fatalf("selected %v+%v cases, want 2000", na, nb)
	}
	if nb == 0 {
		t.Fatal("tail case starved despite 1/4 of the relative mass")
	}
	frac := nb / (na + nb)
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("tail case fraction = %v, want ~0.25", frac)
	}
}

func TestUnstableLoopInInitialMarkingReturnsError(t *testing.T) {
	// A vanishing loop live from t=0 is caught during initialization.
	m := NewModel("unstable0")
	a := m.AddPlace("a", 1)
	b := m.AddPlace("b", 0)
	m.AddInstantaneousActivity("ab").AddInputArc(a, 1).AddOutputArc(b, 1)
	m.AddInstantaneousActivity("ba").AddInputArc(b, 1).AddOutputArc(a, 1)
	sim := mustSimulator(t, m, nil, rng.NewStream(9, "unstable0"))
	if _, err := sim.Run(10); !errors.Is(err, ErrUnstableModel) {
		t.Fatalf("Run error = %v, want ErrUnstableModel", err)
	}
}

// monitoredFailRepair builds the fail/repair model with an availability
// reward and a monitor-ready importance function (tokens in down).
func monitoredFailRepair(t testing.TB) (*Model, []RewardVariable, ImportanceFunc) {
	t.Helper()
	m, up := buildFailRepair(t, 30, 3)
	down := m.Place("down")
	rewards := []RewardVariable{
		UpFraction("avail", func(mr MarkingReader) bool { return mr.Tokens(up) == 1 }),
		CompletionCount("repairs", "repair"),
	}
	imp := func(mr MarkingReader) float64 { return float64(mr.Tokens(down)) }
	return m, rewards, imp
}

// readSwitchModel builds a model whose rate reward reads a place in some
// markings only. A fast source toggles place B and a slow one toggles A.
// Reward "switched" reads B only while A > 0; its twin "eager" first reads
// every place, so that every marking change re-evaluates it, and then returns
// the same value. calls counts the evaluations of each, in that order. Nine
// rewards on B come first, so the two sit past the first byte of a place's
// reader set. The importance function is A's token count.
func readSwitchModel(t testing.TB, calls *[2]int) (*Model, []RewardVariable, ImportanceFunc) {
	t.Helper()
	m := NewModel("read-switch")
	a := m.AddPlace("A", 0)
	b := m.AddPlace("B", 0)
	toggle := func(p *Place) *OutputGate {
		return &OutputGate{Name: "toggle_" + p.Name(), Transform: func(w MarkingWriter) { w.SetTokens(p, 1-w.Tokens(p)) }}
	}
	m.AddTimedActivity("flip_a", mustExp(t, 20)).AddOutputGate(toggle(a))
	m.AddTimedActivity("flip_b", mustExp(t, 0.5)).AddOutputGate(toggle(b))
	rate := func(mr MarkingReader) float64 {
		if mr.Tokens(a) > 0 {
			return 0.25 + float64(mr.Tokens(b))/3
		}
		return 0.75
	}
	var rewards []RewardVariable
	for i := range 9 {
		rewards = append(rewards, TokenTimeAverage("b"+itoa(i), b))
	}
	rewards = append(rewards,
		RewardVariable{Name: "switched", Mode: TimeAveraged, Rate: func(mr MarkingReader) float64 {
			calls[0]++
			return rate(mr)
		}},
		RewardVariable{Name: "eager", Mode: TimeAveraged, Rate: func(mr MarkingReader) float64 {
			calls[1]++
			for _, p := range m.Places() {
				mr.Tokens(p)
			}
			return rate(mr)
		}},
	)
	return m, rewards, func(mr MarkingReader) float64 { return float64(mr.Tokens(a)) }
}

// TestRateRewardReevaluatedOnlyWhenItsReadsChange runs the read-switch model
// on 200 seeds: the reward that skips B while A is empty must equal, bit for
// bit, its twin that every marking change re-evaluates, with strictly fewer
// evaluations.
func TestRateRewardReevaluatedOnlyWhenItsReadsChange(t *testing.T) {
	var calls [2]int
	m, rewards, _ := readSwitchModel(t, &calls)
	sim := mustSimulator(t, m, rewards, rng.NewStream(1, "unused"))
	for seed := uint64(1); seed <= 200; seed++ {
		if err := sim.Reset(rng.NewStream(seed, "read-switch")); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(200)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Rewards["switched"], res.Rewards["eager"]; got != want {
			t.Fatalf("seed %d: switched = %v, eager = %v; want them bit-identical", seed, got, want)
		}
	}
	if calls[0] >= calls[1] {
		t.Errorf("switched was evaluated %d times, eager %d; want strictly fewer", calls[0], calls[1])
	}
}

// TestSnapshotReplayBitIdentical verifies that a snapshot captures the
// complete replication state: restoring it (with the original RNG state)
// into a fresh simulator, or into one that already ran another replication
// and holds that run's record of what each rate reward read, must replay the
// remainder of the trajectory bit-for-bit, yielding the same rewards and
// event count as the uninterrupted run.
func TestSnapshotReplayBitIdentical(t *testing.T) {
	var calls [2]int
	for _, tc := range []struct {
		name  string
		build func(testing.TB) (*Model, []RewardVariable, ImportanceFunc)
	}{
		{"fail-repair", monitoredFailRepair},
		{"read-switch", func(t testing.TB) (*Model, []RewardVariable, ImportanceFunc) { return readSwitchModel(t, &calls) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, rewards, imp := tc.build(t)
			const mission = 400

			var snap *Snapshot
			sim1 := mustSimulator(t, m, rewards, rng.NewStream(33, "orig"))
			full, err := sim1.RunMonitored(mission, &Monitor{
				Importance: imp,
				Threshold:  1,
				OnCross:    func(_ float64, s *Snapshot) { snap = s },
			})
			if err != nil {
				t.Fatal(err)
			}
			if snap == nil {
				t.Fatal("no crossing observed; pick a longer mission")
			}
			if snap.Time <= 0 || snap.Time >= mission {
				t.Fatalf("crossing time %v outside (0, %v)", snap.Time, mission)
			}

			// A different seed: RunFrom must restore the stream from the
			// snapshot. The used simulator's short run ends before the
			// crossing, so its rewards last read the places they read below
			// the threshold.
			fresh := mustSimulator(t, m, rewards, rng.NewStream(12345, "replay"))
			used := mustSimulator(t, m, rewards, rng.NewStream(54321, "other"))
			if _, err := used.Run(0.01); err != nil {
				t.Fatal(err)
			}
			for i, sim := range []*Simulator{fresh, used} {
				replay, err := sim.RunFrom(snap, mission, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(full, replay) {
					t.Errorf("%s simulator's replay differs:\nfull   = %+v\nreplay = %+v", [...]string{"fresh", "used"}[i], full, replay)
				}
			}
		})
	}
}

func TestRunFromValidation(t *testing.T) {
	m, rewards, _ := monitoredFailRepair(t)
	sim := mustSimulator(t, m, rewards, rng.NewStream(1, "v"))
	if _, err := sim.RunFrom(nil, 10, nil, nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	good := &Snapshot{
		Time:      1,
		Tokens:    make([]int, m.NumPlaces()),
		Scheduled: []float64{math.NaN(), math.NaN()},
		RateAccum: make([]float64, 2),
		Impulses:  make([]float64, 2),
		RNG:       rng.NewStream(4, "s").State(),
	}
	good.Tokens[0] = 1
	bad := good.Clone()
	bad.Tokens = bad.Tokens[:1]
	if _, err := sim.RunFrom(bad, 10, nil, nil); err == nil {
		t.Error("wrong place count accepted")
	}
	bad2 := good.Clone()
	bad2.Scheduled = bad2.Scheduled[:1]
	if _, err := sim.RunFrom(bad2, 10, nil, nil); err == nil {
		t.Error("wrong activity count accepted")
	}
	bad3 := good.Clone()
	bad3.RateAccum = nil
	if _, err := sim.RunFrom(bad3, 10, nil, nil); err == nil {
		t.Error("wrong reward count accepted")
	}
	bad4 := good.Clone()
	bad4.RNG = [4]uint64{}
	if _, err := sim.RunFrom(bad4, 10, nil, nil); err == nil {
		t.Error("degenerate RNG state accepted")
	}
	bad5 := good.Clone()
	bad5.Scheduled[0] = 0.5 // before snapshot time
	if _, err := sim.RunFrom(bad5, 10, nil, nil); err == nil {
		t.Error("pending event in the past accepted")
	}
	if _, err := sim.RunFrom(good, 0.5, nil, nil); err == nil {
		t.Error("mission before snapshot time accepted")
	}
	if _, err := sim.RunFrom(good, 10, nil, nil); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}
}

func TestMonitorCrossingAtTimeZero(t *testing.T) {
	// The initial marking already satisfies the threshold: OnCross must fire
	// at t=0 and StopOnCross must prevent any event from executing.
	m := NewModel("t0")
	p := m.AddPlace("p", 5)
	q := m.AddPlace("q", 0)
	m.AddTimedActivity("move", mustDet(t, 1)).AddInputArc(p, 1).AddOutputArc(q, 1)
	sim := mustSimulator(t, m, nil, rng.NewStream(2, "t0"))
	crossedAt := -1.0
	res, err := sim.RunMonitored(10, &Monitor{
		Importance:  func(mr MarkingReader) float64 { return float64(mr.Tokens(p)) },
		Threshold:   3,
		OnCross:     func(now float64, _ *Snapshot) { crossedAt = now },
		StopOnCross: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if crossedAt != 0 {
		t.Errorf("crossed at %v, want 0", crossedAt)
	}
	if res.Events != 0 {
		t.Errorf("events = %d, want 0 (absorbing crossing at t=0)", res.Events)
	}
}

func TestMonitorCrossesOnceAndSnapshotIsDeep(t *testing.T) {
	m, rewards, imp := monitoredFailRepair(t)
	sim := mustSimulator(t, m, rewards, rng.NewStream(44, "once"))
	crossings := 0
	var snap *Snapshot
	if _, err := sim.RunMonitored(2000, &Monitor{
		Importance: imp,
		Threshold:  1,
		OnCross: func(_ float64, s *Snapshot) {
			crossings++
			snap = s
		},
	}); err != nil {
		t.Fatal(err)
	}
	// The component fails ~dozens of times over 2000 h, but only the first
	// upcrossing may fire.
	if crossings != 1 {
		t.Errorf("crossings = %d, want 1", crossings)
	}
	clone := snap.Clone()
	clone.Tokens[0]++
	clone.Reseed(7)
	if snap.Tokens[0] == clone.Tokens[0] {
		t.Error("Clone aliases Tokens")
	}
	if snap.RNG == clone.RNG {
		t.Error("Reseed did not change the clone's RNG state")
	}
}

func TestSelectCaseUnderUnityMassUsesRelativeWeights(t *testing.T) {
	// Explicit probabilities summing to 0.5 (0.2 + 0.3) with no nil case to
	// absorb the leftovers: the old code gave the whole missing mass to the
	// last case (selected 80% of the time); selection must renormalize to
	// the 2:3 relative weights. As above, the values are marking-dependent
	// so Validate's static-sum check does not reject the model.
	var m *Model
	var a, b *Place
	total := func(mr MarkingReader) float64 { return float64(mr.Tokens(a) + mr.Tokens(b)) }
	m, a, b = buildCaseCounter(t,
		func(mr MarkingReader) float64 {
			if total(mr) > 0 {
				return 0.2
			}
			return 0.4
		},
		func(mr MarkingReader) float64 {
			if total(mr) > 0 {
				return 0.3
			}
			return 0.6
		})
	sim := mustSimulator(t, m, []RewardVariable{
		{Name: "a", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(mr.Tokens(a)) }},
		{Name: "b", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(mr.Tokens(b)) }},
	}, rng.NewStream(23, "under"))
	res, err := sim.Run(2000.5)
	if err != nil {
		t.Fatal(err)
	}
	na, nb := res.Rewards["a"], res.Rewards["b"]
	if na+nb != 2000 {
		t.Fatalf("selected %v+%v cases, want 2000", na, nb)
	}
	frac := nb / (na + nb)
	if frac < 0.55 || frac > 0.65 {
		t.Errorf("second case fraction = %v, want ~0.6 (renormalized 0.3/0.5)", frac)
	}
}

// TestSnapshotReplayPreservesTieOrder pins the engine's same-time tiebreak
// across snapshot/restore: two deterministic activities competing for one
// shared token complete at the same instant, and the one scheduled first in
// the original run must win in the replay too, even though it has the higher
// activity index.
func TestSnapshotReplayPreservesTieOrder(t *testing.T) {
	m := NewModel("tie")
	shared := m.AddPlace("shared", 1)
	trigA := m.AddPlace("trig_a", 0)
	trigB := m.AddPlace("trig_b", 0)
	wonA := m.AddPlace("won_a", 0)
	wonB := m.AddPlace("won_b", 0)
	// B's trigger arrives at t=1, A's at t=2; both then complete at t=10,
	// so B is scheduled first (lower engine sequence) despite A's lower
	// activity index.
	m.AddTimedActivity("arm_b", mustDet(t, 1)).AddOutputArc(trigB, 1)
	m.AddTimedActivity("arm_a", mustDet(t, 2)).AddOutputArc(trigA, 1)
	m.AddTimedActivity("a", mustDet(t, 8)).AddInputArc(trigA, 1).AddInputArc(shared, 1).AddOutputArc(wonA, 1)
	m.AddTimedActivity("b", mustDet(t, 9)).AddInputArc(trigB, 1).AddInputArc(shared, 1).AddOutputArc(wonB, 1)
	rewards := []RewardVariable{
		{Name: "won_a", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(mr.Tokens(wonA)) }},
		{Name: "won_b", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(mr.Tokens(wonB)) }},
	}

	var snap *Snapshot
	sim1 := mustSimulator(t, m, rewards, rng.NewStream(3, "tie"))
	// Snapshot at t=2 (A's trigger arrival), when both ties are pending.
	full, err := sim1.RunMonitored(20, &Monitor{
		Importance: func(mr MarkingReader) float64 { return float64(mr.Tokens(trigA)) },
		Threshold:  1,
		OnCross:    func(_ float64, s *Snapshot) { snap = s },
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Time != 2 {
		t.Fatalf("expected snapshot at t=2, got %+v", snap)
	}
	if full.Rewards["won_b"] != 1 || full.Rewards["won_a"] != 0 {
		t.Fatalf("original run: b (scheduled first) should win the tie: %+v", full.Rewards)
	}

	sim2 := mustSimulator(t, m, rewards, rng.NewStream(999, "tie-replay"))
	replay, err := sim2.RunFrom(snap, 20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, replay) {
		t.Errorf("replay diverged on tied events:\nfull   = %+v\nreplay = %+v", full, replay)
	}
}

// reuseModel is a fail/repair component plus an instantaneous "arm" that
// fires in the initial marking, a reactivating "watch" that reads only the
// place it arms, and an hourly "tick" that changes no marking. Places touched
// at time 0 are reconciled at the first completion, usually a tick, which
// then resamples watch; a run that inherited another run's touched places
// would resample it where a fresh run does not.
func reuseModel(t *testing.T) (*CompiledModel, map[string]ImportanceFunc) {
	t.Helper()
	m, up := buildFailRepair(t, 30, 3)
	down := m.Place("down")
	trig := m.AddPlace("trig", 1)
	armed := m.AddPlace("armed", 0)
	boost := m.AddPlace("boost", 0)
	m.AddInstantaneousActivity("arm").AddInputArc(trig, 1).AddOutputArc(armed, 1)
	watch := m.AddTimedActivity("watch", mustExp(t, 20)).AddOutputArc(boost, 1)
	watch.AddInputGate(&InputGate{
		Name:    "armed",
		Reads:   []*Place{armed},
		Enabled: func(mr MarkingReader) bool { return mr.Tokens(armed) > 0 },
	})
	watch.SetReactivation(true)
	m.AddTimedActivity("tick", mustDet(t, 1))
	rewards := []RewardVariable{
		UpFraction("avail", func(mr MarkingReader) bool { return mr.Tokens(up) == 1 }),
		CompletionCount("repairs", "repair"),
		{Name: "boost", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 { return float64(mr.Tokens(boost)) }},
	}
	cm, err := Compile(m, rewards)
	if err != nil {
		t.Fatal(err)
	}
	return cm, map[string]ImportanceFunc{
		"crossing at time 0": func(mr MarkingReader) float64 { return float64(mr.Tokens(armed)) },
		"crossing mid-run":   func(mr MarkingReader) float64 { return float64(mr.Tokens(down)) },
	}
}

// comparableSnapshot returns a copy of snap whose NaN "not scheduled" marks
// read -1, so reflect.DeepEqual can compare it (NaN never equals itself).
func comparableSnapshot(snap *Snapshot) *Snapshot {
	c := snap.Clone()
	for i, t := range c.Scheduled {
		if math.IsNaN(t) {
			c.Scheduled[i] = -1
		}
	}
	return c
}

// TestSimulatorReusesRunState drives one simulator through Run, a
// RunMonitored stopped at a crossing (which leaves pending completions and,
// at time 0, touched places behind), RunFrom of its snapshot and Run again,
// each on its own stream. Every result and the snapshot must equal what a
// fresh simulator returns for the same call.
func TestSimulatorReusesRunState(t *testing.T) {
	const mission = 400
	cm, importances := reuseModel(t)
	for _, name := range []string{"crossing at time 0", "crossing mid-run"} {
		t.Run(name, func(t *testing.T) {
			type call func(sim *Simulator) (Result, *Snapshot, error)
			var snaps [2]*Snapshot // reused, fresh
			calls := []call{
				func(sim *Simulator) (Result, *Snapshot, error) {
					res, err := sim.Run(mission)
					return res, nil, err
				},
				func(sim *Simulator) (Result, *Snapshot, error) {
					var snap *Snapshot
					res, err := sim.RunMonitored(mission, &Monitor{
						Importance:  importances[name],
						Threshold:   1,
						OnCross:     func(_ float64, s *Snapshot) { snap = s },
						StopOnCross: true,
					})
					if err == nil && snap == nil {
						err = errors.New("no crossing")
					}
					return res, snap, err
				},
				nil, // RunFrom, built per side below
				func(sim *Simulator) (Result, *Snapshot, error) {
					res, err := sim.Run(mission)
					return res, nil, err
				},
			}
			reused, err := cm.NewSimulator(rng.NewStream(1, "unused"))
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range calls {
				seed := uint64(100 + i)
				var got, want Result
				var gotSnap, wantSnap *Snapshot
				if err := reused.Reset(rng.NewStream(seed, "reused")); err != nil {
					t.Fatal(err)
				}
				fresh, err := cm.NewSimulator(rng.NewStream(seed, "fresh"))
				if err != nil {
					t.Fatal(err)
				}
				if c == nil {
					got, err = reused.RunFrom(snaps[0], mission, nil, nil)
					if err == nil {
						want, err = fresh.RunFrom(snaps[1], mission, nil, nil)
					}
				} else if got, gotSnap, err = c(reused); err == nil {
					want, wantSnap, err = c(fresh)
				}
				if err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("call %d: reused simulator returned %+v, fresh one %+v", i, got, want)
				}
				if gotSnap != nil {
					if snap := comparableSnapshot(gotSnap); !reflect.DeepEqual(snap, comparableSnapshot(wantSnap)) {
						t.Errorf("call %d: reused simulator's snapshot %+v differs from a fresh one's %+v", i, snap, wantSnap)
					}
					snaps = [2]*Snapshot{gotSnap, wantSnap}
				}
			}
		})
	}
}

// TestWarmRunAllocatesOnlyItsResult bounds the allocations of a warmed
// Reset+Run: the marking, the event queue and the reward accumulators belong
// to the simulator and are reset, not allocated, per replication. Only the
// result's reward map is new: a small map is two allocations, its header and
// one group of slots.
func TestWarmRunAllocatesOnlyItsResult(t *testing.T) {
	m, up := buildFailRepair(t, 50, 5)
	rewards := []RewardVariable{
		UpFraction("avail", func(mr MarkingReader) bool { return mr.Tokens(up) == 1 }),
		CompletionCount("repairs", "repair"),
	}
	stream := rng.NewStream(7, "allocs")
	sim := mustSimulator(t, m, rewards, stream)
	var err error
	run := func() {
		if err == nil {
			err = sim.Reset(stream)
		}
		if err == nil {
			_, err = sim.Run(5000)
		}
	}
	run()
	allocs := testing.AllocsPerRun(20, run)
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 2 {
		t.Errorf("warm Reset+Run allocates %v times, want at most 2 (the result map)", allocs)
	}
}
