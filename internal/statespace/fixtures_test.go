package statespace_test

import (
	"testing"

	"repro/internal/san"
)

// This file holds the hand-built model fixtures the explorer tests share.

// buildComponentFarm builds n independent two-state components with distinct
// rates, a two-case failure branch (one case through an output gate), and
// both rate and impulse rewards. Its state space is the full 2^n hypercube
// with BFS levels up to C(n, n/2) states wide. probe, when not nil, runs in
// every case probability and rate reward evaluation.
func buildComponentFarm(t *testing.T, n int, probe func()) *san.CompiledModel {
	t.Helper()
	if probe == nil {
		probe = func() {}
	}
	m := san.NewModel("farm")
	downs := make([]*san.Place, n)
	for i := 0; i < n; i++ {
		up := m.AddPlace(name("up", i), 1)
		down := m.AddPlace(name("down", i), 0)
		downs[i] = down
		fail := m.AddTimedActivity(name("fail", i), mustExpRate(t, 0.001*float64(i+1)))
		fail.AddInputArc(up, 1)
		fail.AddCase(san.Case{
			Probability: func(mr san.MarkingReader) float64 { probe(); return 0.7 },
			OutputArcs:  []san.Arc{{Place: down, Mult: 1}},
		})
		fail.AddCase(san.Case{
			Probability: func(mr san.MarkingReader) float64 { probe(); return 0.3 },
			OutputGates: []*san.OutputGate{{
				Name:      name("drop", i),
				Transform: func(mw san.MarkingWriter) { mw.SetTokens(down, 1) },
			}},
		})
		repair := m.AddTimedActivity(name("repair", i), mustExpRate(t, 0.05*float64(i+1)))
		repair.AddInputArc(down, 1)
		repair.AddOutputArc(up, 1)
	}
	cm, err := san.Compile(m, []san.RewardVariable{
		san.UpFraction("all_up", func(mr san.MarkingReader) bool {
			probe()
			for _, d := range downs {
				if mr.Tokens(d) > 0 {
					return false
				}
			}
			return true
		}),
		san.CompletionCount("repairs0", name("repair", 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

func name(prefix string, i int) string {
	return prefix + string(rune('a'+i))
}

// buildVanishingRouter builds a pool of two components whose failures pass
// through an instantaneous router with two equally likely cases, so
// exploration takes the vanishing-elimination route.
func buildVanishingRouter(t *testing.T) *san.CompiledModel {
	t.Helper()
	m := san.NewModel("vanish")
	up := m.AddPlace("up", 2)
	staged := m.AddPlace("staged", 0)
	downA := m.AddPlace("down_a", 0)
	downB := m.AddPlace("down_b", 0)
	fail := m.AddTimedActivity("fail", mustExpRate(t, 0.01))
	fail.AddInputArc(up, 1)
	fail.AddOutputArc(staged, 1)
	route := m.AddInstantaneousActivity("route")
	route.AddInputArc(staged, 1)
	route.AddCase(san.Case{
		Probability: func(mr san.MarkingReader) float64 { return 0.5 },
		OutputArcs:  []san.Arc{{Place: downA, Mult: 1}},
	})
	route.AddCase(san.Case{
		Probability: func(mr san.MarkingReader) float64 { return 0.5 },
		OutputArcs:  []san.Arc{{Place: downB, Mult: 1}},
	})
	repairA := m.AddTimedActivity("repair_a", mustExpRate(t, 0.2))
	repairA.AddInputArc(downA, 1)
	repairA.AddOutputArc(up, 1)
	repairB := m.AddTimedActivity("repair_b", mustExpRate(t, 0.3))
	repairB.AddInputArc(downB, 1)
	repairB.AddOutputArc(up, 1)
	cm, err := san.Compile(m, []san.RewardVariable{
		san.UpFraction("avail", func(mr san.MarkingReader) bool { return mr.Tokens(up) > 0 }),
		san.CompletionCount("routed", "route"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cm
}
