package statespace_test

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/abe"
	"repro/internal/dist"
	"repro/internal/san"
	"repro/internal/statespace"
)

// TestProjectedMinisMatchIdentity solves the three shipped minis as the
// sweep certifies them. Each certificate lists two projections: the CFS
// rewards on the chain lumped onto the CFS places, and lost_jobs_transient on
// the client source's two states. The projected answers must match every
// reward solved on the whole chain (the identity projection) within the
// tolerance of TestFastSolverMatchesBaselineNumerically, and
// lost_jobs_transient, which the three minis share through one identical
// source, must be bit-identical across them.
func TestProjectedMinisMatchIdentity(t *testing.T) {
	minis := []struct {
		name      string
		cfg       abe.Config
		expand    bool
		fitTol    float64
		cfsStates int
	}{
		{"MiniExponential", abe.MiniExponential(), false, 0, 864},
		{"MiniErlang", abe.MiniErlang(), true, 0, 1728},
		{"MiniWeibull", abe.MiniWeibull(), true, figure4FitTolerance, 4320},
	}
	var transient []float64
	for _, mini := range minis {
		t.Run(mini.name, func(t *testing.T) {
			cm := buildMini(t, mini.cfg, mini.expand, mini.fitTol)
			gen, cert := statespace.Certify(cm, statespace.Options{})
			if !cert.Certified() {
				t.Fatalf("refused: %s", cert.Summary())
			}
			if len(cert.Projections) != 2 {
				t.Fatalf("want two projections, got %+v", cert.Projections)
			}
			cfs, src := cert.Projections[0], cert.Projections[1]
			if cfs.States != mini.cfsStates || cfs.States*2 != cert.States || !contains(cfs.Rewards, abe.RewardCFSAvailability) {
				t.Errorf("CFS projection %+v, want %d of the certificate's %d states answering %s",
					cfs, mini.cfsStates, cert.States, abe.RewardCFSAvailability)
			}
			if src.States != 2 || src.Transitions != 2 || len(src.Rewards) != 1 || src.Rewards[0] != abe.RewardLostJobsTransient {
				t.Errorf("source projection %+v, want 2 states and 2 transitions answering %s", src, abe.RewardLostJobsTransient)
			}
			got, err := gen.SolveTransient(8760)
			if err != nil {
				t.Fatal(err)
			}
			want, err := gen.SolveTransientIdentity(8760)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d rewards, want %d", len(got), len(want))
			}
			for name, w := range want {
				if diff := math.Abs(got[name] - w); diff > 1e-9*(1+math.Abs(w)) {
					t.Errorf("reward %q: projected %v vs whole chain %v (diff %g)", name, got[name], w, diff)
				}
			}
			transient = append(transient, got[abe.RewardLostJobsTransient])
		})
	}
	for i := 1; i < len(transient); i++ {
		if math.Float64bits(transient[i]) != math.Float64bits(transient[0]) {
			t.Errorf("%s: %s = %v, %s gives %v; want bit-identical answers from one source",
				minis[i].name, abe.RewardLostJobsTransient, transient[i], minis[0].name, transient[0])
		}
	}
}

func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// twoComponents shapes the two-component fixture. The zero value is a
// repairable unit and an on/off source that change no place of each other
// and start up and idle.
type twoComponents struct {
	coupling   float64 // added to the source's start rate per unit down
	splitStart bool    // the source starts idle or busy with probability 1/2
}

// buildTwoComponents builds a repairable unit (places a/up, a/down) and an
// on/off source (b/idle, b/busy). The source starts at rate 0.2, plus
// v.coupling times the unit's down count (the rate is marking-dependent and
// reactivates). With v.splitStart an instantaneous activity takes the
// source's initial token from b/init to b/idle or b/busy, so the initial
// distribution has two atoms. rewards picks the reward variables from the
// unit's and the source's places.
func buildTwoComponents(t *testing.T, v twoComponents, rewards func(aUp, bIdle *san.Place) []san.RewardVariable) *san.CompiledModel {
	t.Helper()
	m := san.NewModel("two-components")
	aUp := m.AddPlace("a/up", 1)
	aDown := m.AddPlace("a/down", 0)
	idle := 1
	if v.splitStart {
		idle = 0
	}
	bIdle := m.AddPlace("b/idle", idle)
	bBusy := m.AddPlace("b/busy", 0)
	if v.splitStart {
		m.AddInstantaneousActivity("b/split").
			AddInputArc(m.AddPlace("b/init", 1), 1).
			AddCase(san.Case{Probability: func(san.MarkingReader) float64 { return 0.5 }, OutputArcs: []san.Arc{{Place: bIdle, Mult: 1}}}).
			AddCase(san.Case{Probability: func(san.MarkingReader) float64 { return 0.5 }, OutputArcs: []san.Arc{{Place: bBusy, Mult: 1}}})
	}
	m.AddTimedActivity("a/fail", mustExpRate(t, 0.01)).AddInputArc(aUp, 1).AddOutputArc(aDown, 1)
	m.AddTimedActivity("a/repair", mustExpRate(t, 0.1)).AddInputArc(aDown, 1).AddOutputArc(aUp, 1)
	start := m.AddTimedActivityFunc("b/start", func(mr san.MarkingReader) dist.Distribution {
		return mustExpRate(t, 0.2+v.coupling*float64(mr.Tokens(aDown)))
	})
	start.SetReactivation(true)
	start.AddInputArc(bIdle, 1).AddOutputArc(bBusy, 1)
	m.AddTimedActivity("b/done", mustExpRate(t, 0.5)).AddInputArc(bBusy, 1).AddOutputArc(bIdle, 1)
	cm, err := san.Compile(m, rewards(aUp, bIdle))
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// buildTick builds the repairable unit with a self-loop activity "tick" at
// rate 2 whose firings reward "ticks" counts. A tick changes no place, so
// the partition gives the ticks a component with no places and one class.
// With whileDown the tick takes and returns the down token, so it fires
// only while the unit is down and the class's states earn ticks at
// different rates; otherwise it fires in every state.
func buildTick(t *testing.T, whileDown bool) *san.CompiledModel {
	t.Helper()
	m := san.NewModel("tick")
	aUp := m.AddPlace("a/up", 1)
	aDown := m.AddPlace("a/down", 0)
	m.AddTimedActivity("a/fail", mustExpRate(t, 0.01)).AddInputArc(aUp, 1).AddOutputArc(aDown, 1)
	m.AddTimedActivity("a/repair", mustExpRate(t, 0.1)).AddInputArc(aDown, 1).AddOutputArc(aUp, 1)
	tick := m.AddTimedActivity("tick", mustExpRate(t, 2))
	if whileDown {
		tick.AddInputArc(aDown, 1).AddOutputArc(aDown, 1)
	}
	cm, err := san.Compile(m, []san.RewardVariable{
		san.UpFraction("a_up", func(mr san.MarkingReader) bool { return mr.Tokens(aUp) > 0 }),
		san.CompletionCount("ticks", "tick"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// TestProjectionCheck runs the check on fixtures whose rewards fall into two
// components, solving over 1000 h. Uncoupled, the two-component fixture
// lumps onto each component's two places, also when its initial mass is
// split over both of the source's classes; a tick earned in every state
// lumps onto one class and earns exactly 2 per hour; the answers must match
// the sequential reference solve of the whole chain. When the source's rate
// reads the unit's down count, the source's class holds states with
// different exit rates; when the tick fires only while the unit is down,
// its class holds states with different impulse flux. Either way the check
// must fail, the certificate carry no projections, and every reward be
// solved on the whole chain, bit for bit.
func TestProjectionCheck(t *testing.T) {
	split := func(aUp, _ *san.Place) []san.RewardVariable {
		return []san.RewardVariable{
			san.UpFraction("a_up", func(mr san.MarkingReader) bool { return mr.Tokens(aUp) > 0 }),
			san.CompletionCount("b_starts", "b/start"),
		}
	}
	twoWay := []san.ProjectionEvidence{
		{Rewards: []string{"a_up"}, Places: 2, States: 2, Transitions: 2},
		{Rewards: []string{"b_starts"}, Places: 2, States: 2, Transitions: 2},
	}
	for _, tc := range []struct {
		name   string
		build  func(t *testing.T) *san.CompiledModel
		states int
		want   []san.ProjectionEvidence // nil: the check fails
		exact  map[string]float64       // closed-form answers
	}{
		{"uncoupled", func(t *testing.T) *san.CompiledModel {
			return buildTwoComponents(t, twoComponents{}, split)
		}, 4, twoWay, nil},
		{"uncoupled, split initial mass", func(t *testing.T) *san.CompiledModel {
			return buildTwoComponents(t, twoComponents{splitStart: true}, split)
		}, 4, twoWay, nil},
		{"tick in every state", func(t *testing.T) *san.CompiledModel { return buildTick(t, false) }, 2, []san.ProjectionEvidence{
			{Rewards: []string{"a_up"}, Places: 2, States: 2, Transitions: 2},
			{Rewards: []string{"ticks"}, Places: 0, States: 1, Transitions: 0},
		}, map[string]float64{"ticks": 2000}},
		{"source rate reads the unit", func(t *testing.T) *san.CompiledModel {
			return buildTwoComponents(t, twoComponents{coupling: 0.3}, split)
		}, 4, nil, nil},
		{"tick only while down", func(t *testing.T) *san.CompiledModel { return buildTick(t, true) }, 2, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gen, cert := statespace.Certify(tc.build(t), statespace.Options{})
			if !cert.Certified() || cert.States != tc.states {
				t.Fatalf("want %d certified states, got %s", tc.states, cert.Summary())
			}
			got, err := gen.SolveTransient(1000)
			if err != nil {
				t.Fatal(err)
			}
			if tc.want == nil {
				if cert.Projections != nil {
					t.Fatalf("a failed check must record no projections, got %+v", cert.Projections)
				}
				whole, err := gen.SolveTransientIdentity(1000)
				if err != nil {
					t.Fatal(err)
				}
				sameBitsMap(t, got, whole)
				return
			}
			if g, w := mustJSON(t, cert.Projections), mustJSON(t, tc.want); g != w {
				t.Fatalf("projections %s, want %s", g, w)
			}
			flat, err := gen.SolveTransientReference(1000)
			if err != nil {
				t.Fatal(err)
			}
			for name, w := range flat {
				if diff := math.Abs(got[name] - w); diff > 1e-9*(1+math.Abs(w)) {
					t.Errorf("reward %q: projected %v vs reference solve %v (diff %g)", name, got[name], w, diff)
				}
			}
			for name, w := range tc.exact {
				if got[name] != w {
					t.Errorf("reward %q: projected %v, want exactly %v", name, got[name], w)
				}
			}
		})
	}
}

// TestProjectionRewardReadingBothComponents gives the uncoupled fixture a
// reward that reads both components: the rewards then share one component,
// and the chain is solved whole.
func TestProjectionRewardReadingBothComponents(t *testing.T) {
	gen, cert := statespace.Certify(buildTwoComponents(t, twoComponents{}, func(aUp, bIdle *san.Place) []san.RewardVariable {
		return []san.RewardVariable{
			san.UpFraction("both_ready", func(mr san.MarkingReader) bool { return mr.Tokens(aUp) > 0 && mr.Tokens(bIdle) > 0 }),
			san.CompletionCount("b_starts", "b/start"),
		}
	}), statespace.Options{})
	if !cert.Certified() {
		t.Fatalf("refused: %s", cert.Summary())
	}
	if cert.Projections != nil {
		t.Fatalf("one component must record no projections, got %+v", cert.Projections)
	}
	got, err := gen.SolveTransient(1000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gen.SolveTransientIdentity(1000)
	if err != nil {
		t.Fatal(err)
	}
	sameBitsMap(t, got, want)
}

func sameBitsMap(t *testing.T, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rewards, want %d", len(got), len(want))
	}
	for name, w := range want {
		if math.Float64bits(got[name]) != math.Float64bits(w) {
			t.Errorf("reward %q: %v, want bit-identical %v", name, got[name], w)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
