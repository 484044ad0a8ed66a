package san

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
)

// TestAnalyzeCleanModel: a plain fail/repair model has no findings.
func TestAnalyzeCleanModel(t *testing.T) {
	m := NewModel("clean")
	up := m.AddPlace("up", 1)
	down := m.AddPlace("down", 0)
	m.AddTimedActivity("fail", mustExp(t, 100)).AddInputArc(up, 1).AddOutputArc(down, 1)
	m.AddTimedActivity("repair", mustExp(t, 10)).AddInputArc(down, 1).AddOutputArc(up, 1)
	rewards := []RewardVariable{UpFraction("avail", func(r MarkingReader) bool { return r.Tokens(up) > 0 })}
	cm, err := Compile(m, rewards)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	rep := Analyze(cm)
	if !rep.Clean || len(rep.VanishingLoops) != 0 || len(rep.DeadActivities) != 0 || len(rep.UnreadPlaces) != 0 {
		t.Fatalf("expected clean report, got %+v", rep)
	}
	if rep.Places != 2 || rep.Activities != 2 || rep.Instantaneous != 0 {
		t.Fatalf("wrong counters: %+v", rep)
	}
}

// TestAnalyzeVanishingCycle: two instantaneous activities passing a token
// back and forth are the static form of the runtime ErrUnstableModel loop.
func TestAnalyzeVanishingCycle(t *testing.T) {
	m := NewModel("cycle")
	a := m.AddPlace("a", 1)
	b := m.AddPlace("b", 0)
	m.AddInstantaneousActivity("ping").AddInputArc(a, 1).AddOutputArc(b, 1)
	m.AddInstantaneousActivity("pong").AddInputArc(b, 1).AddOutputArc(a, 1)
	cm, err := Compile(m, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	rep := Analyze(cm)
	if len(rep.VanishingLoops) != 1 || rep.Clean {
		t.Fatalf("expected one vanishing loop, got %+v", rep.VanishingLoops)
	}
	l := rep.VanishingLoops[0]
	if l.Kind != "cycle" || strings.Join(l.Activities, ",") != "ping,pong" {
		t.Fatalf("wrong loop: %+v", l)
	}
}

// TestAnalyzeVanishingCycleMatchesRuntime: the statically detected loop is
// exactly the model the simulator rejects at runtime with ErrUnstableModel.
func TestAnalyzeVanishingCycleMatchesRuntime(t *testing.T) {
	m := NewModel("cycle-runtime")
	a := m.AddPlace("a", 1)
	b := m.AddPlace("b", 0)
	m.AddInstantaneousActivity("ping").AddInputArc(a, 1).AddOutputArc(b, 1)
	m.AddInstantaneousActivity("pong").AddInputArc(b, 1).AddOutputArc(a, 1)
	cm, err := Compile(m, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if rep := Analyze(cm); len(rep.VanishingLoops) == 0 {
		t.Fatal("static analysis missed the loop")
	}
	sim, err := cm.NewSimulator(rng.NewStream(1, "cycle"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(10); !errors.Is(err, ErrUnstableModel) {
		t.Fatalf("Run error = %v, want ErrUnstableModel", err)
	}
}

// TestAnalyzeSelfSustaining: an instantaneous activity whose output returns
// its own enabling token fires forever once enabled.
func TestAnalyzeSelfSustaining(t *testing.T) {
	m := NewModel("self")
	p := m.AddPlace("p", 1)
	m.AddInstantaneousActivity("spin").AddInputArc(p, 1).AddOutputArc(p, 1)
	cm, err := Compile(m, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	rep := Analyze(cm)
	if len(rep.VanishingLoops) != 1 {
		t.Fatalf("expected one loop, got %+v", rep.VanishingLoops)
	}
	l := rep.VanishingLoops[0]
	if l.Kind != "self-sustaining" || !l.Definite {
		t.Fatalf("wrong loop: %+v", l)
	}
}

// TestAnalyzeAlwaysEnabled: an instantaneous activity with no enabling
// inputs at all can never stop firing.
func TestAnalyzeAlwaysEnabled(t *testing.T) {
	m := NewModel("always")
	sink := m.AddPlace("sink", 0)
	m.AddInstantaneousActivity("source").AddOutputArc(sink, 1)
	cm, err := Compile(m, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	rep := Analyze(cm)
	if len(rep.VanishingLoops) != 1 || rep.VanishingLoops[0].Kind != "always-enabled" || !rep.VanishingLoops[0].Definite {
		t.Fatalf("expected definite always-enabled loop, got %+v", rep.VanishingLoops)
	}
	// A gate predicate makes the loop breakable, so no longer definite.
	m2 := NewModel("always-gated")
	sink2 := m2.AddPlace("sink", 0)
	m2.AddInstantaneousActivity("source").
		AddInputGate(&InputGate{Name: "g", Reads: []*Place{sink2}, Enabled: func(r MarkingReader) bool { return r.Tokens(sink2) < 1 }}).
		AddOutputArc(sink2, 1)
	cm2, err := Compile(m2, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	rep2 := Analyze(cm2)
	if len(rep2.VanishingLoops) != 1 || rep2.VanishingLoops[0].Definite {
		t.Fatalf("expected possible (non-definite) loop, got %+v", rep2.VanishingLoops)
	}
}

// TestAnalyzeDeadActivity: an input place with no writer and insufficient
// initial marking makes the activity statically dead; a gate transform that
// tokens the place (discovered by probing) revives it.
func TestAnalyzeDeadActivity(t *testing.T) {
	m := NewModel("dead")
	trigger := m.AddPlace("trigger", 0)
	done := m.AddPlace("done", 0)
	m.AddTimedActivity("never", mustExp(t, 1)).AddInputArc(trigger, 1).AddOutputArc(done, 1)
	cm, err := Compile(m, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	rep := Analyze(cm)
	if len(rep.DeadActivities) != 1 || rep.Clean {
		t.Fatalf("expected one dead activity, got %+v", rep.DeadActivities)
	}
	if d := rep.DeadActivities[0]; d.Activity != "never" || d.Place != "trigger" {
		t.Fatalf("wrong dead activity: %+v", d)
	}

	// Same structure, but a gate transform on another activity writes the
	// trigger place: probing must discover the write and clear the finding.
	m2 := NewModel("dead-revived")
	trigger2 := m2.AddPlace("trigger", 0)
	done2 := m2.AddPlace("done", 0)
	pulse := m2.AddPlace("pulse", 1)
	m2.AddTimedActivity("never", mustExp(t, 1)).AddInputArc(trigger2, 1).AddOutputArc(done2, 1)
	m2.AddTimedActivity("pulser", mustExp(t, 5)).
		AddInputArc(pulse, 1).
		AddOutputGate(&OutputGate{Name: "og", Transform: func(w MarkingWriter) { w.Add(trigger2, 1) }})
	cm2, err := Compile(m2, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if rep2 := Analyze(cm2); len(rep2.DeadActivities) != 0 {
		t.Fatalf("gate write not discovered, dead: %+v", rep2.DeadActivities)
	}
}

// TestAnalyzeDeadActivityMultiplicity: an initial marking below the arc
// multiplicity is just as dead as an empty one.
func TestAnalyzeDeadActivityMultiplicity(t *testing.T) {
	m := NewModel("dead-mult")
	pool := m.AddPlace("pool", 1)
	out := m.AddPlace("out", 0)
	m.AddTimedActivity("pair_consume", mustExp(t, 1)).AddInputArc(pool, 2).AddOutputArc(out, 1)
	cm, err := Compile(m, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	rep := Analyze(cm)
	if len(rep.DeadActivities) != 1 {
		t.Fatalf("expected dead activity, got %+v", rep.DeadActivities)
	}
}

// TestAnalyzeUnreadPlace: a written-but-never-read place is reported as
// advisory and does not affect Clean.
func TestAnalyzeUnreadPlace(t *testing.T) {
	m := NewModel("unread")
	up := m.AddPlace("up", 1)
	down := m.AddPlace("down", 0)
	counter := m.AddPlace("counter", 0)
	m.AddTimedActivity("fail", mustExp(t, 100)).AddInputArc(up, 1).
		AddOutputArc(down, 1).AddOutputArc(counter, 1)
	m.AddTimedActivity("repair", mustExp(t, 10)).AddInputArc(down, 1).AddOutputArc(up, 1)
	cm, err := Compile(m, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	rep := Analyze(cm)
	if len(rep.UnreadPlaces) != 1 || rep.UnreadPlaces[0] != "counter" {
		t.Fatalf("expected counter unread, got %v", rep.UnreadPlaces)
	}
	if !rep.Clean {
		t.Fatal("unread places must not affect Clean")
	}
	// A reward reading the place (discovered by probing) clears the finding.
	rewards := []RewardVariable{TokenTimeAverage("failures", counter)}
	cm2, err := Compile(m, rewards)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if rep2 := Analyze(cm2); len(rep2.UnreadPlaces) != 0 {
		t.Fatalf("reward read not discovered, unread: %v", rep2.UnreadPlaces)
	}
}

// TestDelayLumpability pins the reason taxonomy the verdicts are built from.
func TestDelayLumpability(t *testing.T) {
	exp := mustExp(t, 10)
	if r := DelayLumpability("x", exp); r != "" {
		t.Fatalf("exponential classified %q", r)
	}
	w1, err := dist.NewWeibullFromMTBF(1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if r := DelayLumpability("x", w1); r != "" {
		t.Fatalf("shape-1 weibull classified %q", r)
	}
	w07, err := dist.NewWeibullFromMTBF(0.7, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if r := DelayLumpability("x", w07); !strings.HasPrefix(r, ReasonAgedState) {
		t.Fatalf("aged weibull classified %q", r)
	}
	det, err := dist.NewDeterministic(4)
	if err != nil {
		t.Fatal(err)
	}
	if r := DelayLumpability("x", det); !strings.HasPrefix(r, ReasonAgedState) {
		t.Fatalf("deterministic classified %q", r)
	}
	uni, err := dist.NewUniform(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r := DelayLumpability("x", uni); !strings.HasPrefix(r, ReasonNonExponential) {
		t.Fatalf("uniform classified %q", r)
	}
	if r := DelayLumpability("x", nil); !strings.HasPrefix(r, ReasonNonExponential) {
		t.Fatalf("nil classified %q", r)
	}
}

// TestDeriveLumpability: the verdict is false exactly when a delay is not
// memoryless or a structural reason is present, and reasons accumulate in
// order.
func TestDeriveLumpability(t *testing.T) {
	exp := mustExp(t, 10)
	uni, err := dist.NewUniform(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	good := DeriveLumpability("fam", 8, true, []NamedDelay{{Label: "a", Delay: exp}})
	if !good.Lumpable || len(good.Reasons) != 0 || good.Count != 8 || !good.Lumped {
		t.Fatalf("good verdict wrong: %+v", good)
	}
	bad := DeriveLumpability("fam", 8, false,
		[]NamedDelay{{Label: "a", Delay: exp}, {Label: "b", Delay: uni}},
		ReasonCrewCoupling+": 4 crews")
	if bad.Lumpable || len(bad.Reasons) != 2 {
		t.Fatalf("bad verdict wrong: %+v", bad)
	}
	if !strings.HasPrefix(bad.Reasons[0], ReasonNonExponential) || !strings.HasPrefix(bad.Reasons[1], ReasonCrewCoupling) {
		t.Fatalf("reason order wrong: %v", bad.Reasons)
	}
}

// TestAnalyzeFamiliesAndGolden: declared families appear in the report in
// declaration order, and the rendered text matches the golden form abesim
// prints.
func TestAnalyzeFamiliesAndGolden(t *testing.T) {
	m := NewModel("golden")
	up := m.AddPlace("up", 1)
	down := m.AddPlace("down", 0)
	m.AddTimedActivity("fail", mustExp(t, 100)).AddInputArc(up, 1).AddOutputArc(down, 1)
	m.AddTimedActivity("repair", mustExp(t, 10)).AddInputArc(down, 1).AddOutputArc(up, 1)
	uni, err := dist.NewUniform(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	m.DeclareFamily(DeriveLumpability("servers", 4, true, []NamedDelay{{Label: "repair", Delay: mustExp(t, 10)}}))
	m.DeclareFamily(DeriveLumpability("routers", 2, false, []NamedDelay{{Label: "reroute", Delay: uni}}))
	cm, err := Compile(m, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	rep := Analyze(cm)
	if len(rep.Families) != 2 || rep.Families[0].Family != "servers" || rep.Families[1].Family != "routers" {
		t.Fatalf("families wrong: %+v", rep.Families)
	}
	const golden = `analysis: golden
  places 2, activities 2 (0 instantaneous)
  vanishing loops: none
  dead activities: none
  families:
    - servers n=4 built=lumped lumpable=true
    - routers n=2 built=flat lumpable=false
        non-exponential transition: reroute uniform(hi=6, lo=2)
  clean: true
`
	if got := rep.Render(); got != golden {
		t.Fatalf("render mismatch:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
	// The report must marshal to JSON with the documented section names.
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"model"`, `"families"`, `"clean"`} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("JSON missing %s: %s", key, raw)
		}
	}
}

// TestRewardValidationErrorDeterministic pins the sorted-key validation fix:
// a reward referencing several unknown impulse activities must name the
// alphabetically first one on every run, not a map-order-dependent pick.
func TestRewardValidationErrorDeterministic(t *testing.T) {
	one := func(MarkingReader) float64 { return 1 }
	for i := 0; i < 20; i++ {
		m := NewModel("reward-det")
		up := m.AddPlace("up", 1)
		m.AddTimedActivity("fail", mustExp(t, 100)).AddInputArc(up, 1)
		bad := RewardVariable{
			Name: "r", Mode: Accumulated,
			Impulses: map[string]ImpulseFunc{"zz_missing": one, "aa_missing": one, "mm_missing": one},
		}
		_, err := Compile(m, []RewardVariable{bad})
		if err == nil || !strings.Contains(err.Error(), `"aa_missing"`) {
			t.Fatalf("iteration %d: error %v, want mention of aa_missing", i, err)
		}
	}
}
