package san_test

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/san"
)

// fpModel builds a small model exercising every fingerprinted surface:
// places, input arcs, an input gate with predicate and transform, a fixed
// exponential delay, a marking-dependent delay, probabilistic cases with
// output arcs and an output gate, and rate plus impulse rewards. mutate, when
// non-nil, edits the builder before compilation.
func fpModel(t *testing.T, mutate func(m *san.Model, up, down *san.Place)) *san.CompiledModel {
	t.Helper()
	m := san.NewModel("fp")
	up := m.AddPlace("up", 2)
	down := m.AddPlace("down", 0)
	fail := m.AddTimedActivity("fail", fpExp(t, 0.001))
	fail.AddInputArc(up, 1)
	fail.AddCase(san.Case{
		Probability: func(mr san.MarkingReader) float64 { return 0.75 },
		OutputArcs:  []san.Arc{{Place: down, Mult: 1}},
	})
	fail.AddCase(san.Case{
		Probability: func(mr san.MarkingReader) float64 { return 0.25 },
		OutputArcs:  []san.Arc{{Place: down, Mult: 1}},
		OutputGates: []*san.OutputGate{{
			Name:      "drain",
			Transform: func(mw san.MarkingWriter) { mw.SetTokens(down, mw.Tokens(down)) },
		}},
	})
	repair := m.AddTimedActivityFunc("repair", func(mr san.MarkingReader) dist.Distribution {
		return fpExp(t, 0.1*float64(1+mr.Tokens(down)))
	})
	repair.AddInputArc(down, 1)
	repair.AddInputGate(&san.InputGate{
		Name:    "crew",
		Reads:   []*san.Place{up},
		Enabled: func(mr san.MarkingReader) bool { return mr.Tokens(up) < 2 },
	})
	repair.AddOutputArc(up, 1)
	repair.SetReactivation(true)
	if mutate != nil {
		mutate(m, up, down)
	}
	cm, err := san.Compile(m, []san.RewardVariable{
		san.UpFraction("avail", func(mr san.MarkingReader) bool { return mr.Tokens(up) > 0 }),
		san.CompletionCount("repairs", "repair"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

func fpExp(t *testing.T, rate float64) dist.Exponential {
	t.Helper()
	d, err := dist.NewExponentialFromRate(rate)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFingerprintStable pins the fingerprint of the fixture model to a golden
// value, proving the serialization is stable across processes and runs (no
// map-order or pointer-value dependence can survive a fixed golden). Building
// the same model twice must also agree without consulting the golden.
func TestFingerprintStable(t *testing.T) {
	a := fpModel(t, nil).Fingerprint()
	b := fpModel(t, nil).Fingerprint()
	if a != b {
		t.Fatalf("fingerprint not reproducible: %s vs %s", a, b)
	}
	const golden = "ca03f1837830b84cec1a6b035ebb565d87cc19e5d6d36481d84f2dc13959940a"
	if a != golden {
		t.Fatalf("fingerprint drifted from golden:\n got %s\nwant %s\n(an intentional serialization change must update the golden)", a, golden)
	}
}

// TestFingerprintSensitivity flips every fingerprinted field one at a time
// and asserts the hash moves each time.
func TestFingerprintSensitivity(t *testing.T) {
	base := fpModel(t, nil).Fingerprint()
	variants := map[string]func(m *san.Model, up, down *san.Place){
		"extra place":     func(m *san.Model, up, down *san.Place) { m.AddPlace("spare", 0) },
		"initial marking": func(m *san.Model, up, down *san.Place) { m.AddPlace("pool", 3) },
		"place name":      func(m *san.Model, up, down *san.Place) { m.AddPlace("renamed", 0) },
		"extra activity": func(m *san.Model, up, down *san.Place) {
			m.AddTimedActivity("age", fpExp(t, 2)).AddInputArc(up, 1).AddOutputArc(up, 1)
		},
		"arc multiplicity": func(m *san.Model, up, down *san.Place) { m.Activity("fail").AddInputArc(up, 1) },
		"delay rate": func(m *san.Model, up, down *san.Place) {
			m.AddTimedActivity("age", fpExp(t, 3)).AddInputArc(up, 1).AddOutputArc(up, 1)
		},
		"gate predicate": func(m *san.Model, up, down *san.Place) {
			m.Activity("fail").AddInputGate(&san.InputGate{Name: "g", Reads: []*san.Place{down}, Enabled: func(mr san.MarkingReader) bool { return mr.Tokens(down) < 5 }})
		},
		"output gate": func(m *san.Model, up, down *san.Place) {
			m.Activity("repair").AddOutputGate(&san.OutputGate{Name: "og", Transform: func(mw san.MarkingWriter) { mw.Add(down, 0) }})
		},
		"reactivation flag": func(m *san.Model, up, down *san.Place) { m.Activity("repair").SetReactivation(false) },
	}
	seen := map[string]string{"": base}
	for name, mutate := range variants {
		fp := fpModel(t, mutate).Fingerprint()
		if fp == base {
			t.Errorf("variant %q did not change the fingerprint", name)
		}
		for prev, prevFP := range seen {
			if prevFP == fp {
				t.Errorf("variants %q and %q collide", name, prev)
			}
		}
		seen[name] = fp
	}
}

// TestFingerprintClosureBehavior asserts behavioral sensitivity of closure
// probing: case probabilities, marking-dependent delay specs, gate
// transforms, and reward functions that differ in behavior (not just
// identity) produce different fingerprints, while recompiling closures with
// identical behavior does not.
func TestFingerprintClosureBehavior(t *testing.T) {
	base := fpModel(t, nil).Fingerprint()

	caseProb := fpModel(t, func(m *san.Model, up, down *san.Place) {
		cases := m.Activity("fail").Cases()
		cases[0].Probability = func(mr san.MarkingReader) float64 { return 0.9 }
		cases[1].Probability = func(mr san.MarkingReader) float64 { return 0.1 }
	}).Fingerprint()
	if caseProb == base {
		t.Error("changed case probability did not change the fingerprint")
	}

	delayFn := fpModel(t, func(m *san.Model, up, down *san.Place) {
		m.AddTimedActivityFunc("repair2", func(mr san.MarkingReader) dist.Distribution {
			return fpExp(t, 0.2*float64(1+mr.Tokens(down)))
		}).AddInputArc(down, 1).AddOutputArc(up, 1)
	}).Fingerprint()
	delayFn2 := fpModel(t, func(m *san.Model, up, down *san.Place) {
		m.AddTimedActivityFunc("repair2", func(mr san.MarkingReader) dist.Distribution {
			return fpExp(t, 0.3*float64(1+mr.Tokens(down)))
		}).AddInputArc(down, 1).AddOutputArc(up, 1)
	}).Fingerprint()
	if delayFn == delayFn2 {
		t.Error("marking-dependent delays with different rates collide")
	}

	// Rewards: same model, different reward rate behavior.
	m1 := san.NewModel("r")
	p1 := m1.AddPlace("p", 1)
	m1.AddTimedActivity("t", fpExp(t, 1)).AddInputArc(p1, 1).AddOutputArc(p1, 1)
	cmA, err := san.Compile(m1, []san.RewardVariable{san.TokenTimeAverage("tokens", p1)})
	if err != nil {
		t.Fatal(err)
	}
	m2 := san.NewModel("r")
	p2 := m2.AddPlace("p", 1)
	m2.AddTimedActivity("t", fpExp(t, 1)).AddInputArc(p2, 1).AddOutputArc(p2, 1)
	cmB, err := san.Compile(m2, []san.RewardVariable{{
		Name: "tokens", Mode: san.TimeAveraged,
		Rate: func(mr san.MarkingReader) float64 { return 2 * float64(mr.Tokens(p2)) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if cmA.Fingerprint() == cmB.Fingerprint() {
		t.Error("different reward rate behavior collides")
	}

	// Identical content built from two independent builders must agree.
	m3 := san.NewModel("r")
	p3 := m3.AddPlace("p", 1)
	m3.AddTimedActivity("t", fpExp(t, 1)).AddInputArc(p3, 1).AddOutputArc(p3, 1)
	cmC, err := san.Compile(m3, []san.RewardVariable{san.TokenTimeAverage("tokens", p3)})
	if err != nil {
		t.Fatal(err)
	}
	if cmA.Fingerprint() != cmC.Fingerprint() {
		t.Errorf("identical models disagree: %s vs %s", cmA.Fingerprint(), cmC.Fingerprint())
	}
}
