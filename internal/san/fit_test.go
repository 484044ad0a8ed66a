package san

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/phfit"
	"repro/internal/rng"
)

func mustWeibull(t *testing.T, shape, scale float64) dist.Distribution {
	t.Helper()
	d, err := dist.NewWeibull(shape, scale)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustLognormal(t *testing.T, mu, sigma float64) dist.Distribution {
	t.Helper()
	d, err := dist.NewLognormal(mu, sigma)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFitPhasesChainStructure pins the chain rewrite for a Weibull wear-out
// delay: the surrogate is a 3-stage hypoexponential (cv^2 ~ 0.46), realized
// through the same chain rewrite as exact expansion, with full evidence.
func TestFitPhasesChainStructure(t *testing.T) {
	m := NewModel("fit-chain")
	pending := m.AddPlace("pending", 1)
	done := m.AddPlace("done", 0)
	m.AddTimedActivity("wear", mustWeibull(t, 1.5, 1000)).
		AddInputArc(pending, 1).
		AddOutputArc(done, 1)

	m, rep, err := FitPhases(m, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Refusals) != 0 {
		t.Fatalf("unexpected refusals: %v", rep.Refusals)
	}
	if len(rep.Fits) != 1 {
		t.Fatalf("expected one fit, got %v", rep.Fits)
	}
	ev := rep.Fits[0]
	if ev.Activity != "wear" || ev.Family != "hypoexponential" || ev.Phases != 3 {
		t.Fatalf("evidence = %+v, want wear/hypoexponential/3", ev)
	}
	if ev.Metric != phfit.MetricKolmogorov {
		t.Fatalf("metric = %q, want %q", ev.Metric, phfit.MetricKolmogorov)
	}
	if !(ev.Bound > 0 && ev.Bound <= ev.Tolerance) || ev.Tolerance != 0.2 {
		t.Fatalf("bound/tolerance = %v/%v, want bound in (0, 0.2]", ev.Bound, ev.Tolerance)
	}
	if ev.MomentsMatched != 2 {
		t.Fatalf("moments matched = %d, want 2", ev.MomentsMatched)
	}
	if !strings.Contains(ev.Original, "weibull") {
		t.Fatalf("evidence must describe the original: %q", ev.Original)
	}
	wantTouched := []string{"wear", "wear/phase1", "wear/phase2"}
	got := rep.Touched()
	if len(got) != len(wantTouched) {
		t.Fatalf("touched = %v, want %v", got, wantTouched)
	}
	for i := range got {
		if got[i] != wantTouched[i] {
			t.Fatalf("touched = %v, want %v", got, wantTouched)
		}
	}
	// Two fresh phase places, two new stage activities, exponential delays.
	if m.NumPlaces() != 4 || m.NumActivities() != 3 {
		t.Fatalf("fitted model has %d places, %d activities; want 4, 3",
			m.NumPlaces(), m.NumActivities())
	}
	for _, name := range wantTouched {
		a := m.Activity(name)
		if a == nil {
			t.Fatalf("touched activity %q missing", name)
		}
		if _, ok := a.fixedDelay.(dist.Exponential); !ok {
			t.Fatalf("stage %q delay not exponential: %T", name, a.fixedDelay)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("fitted model invalid: %v", err)
	}
	if err := rep.Verify(m); err != nil {
		t.Fatalf("fresh fit must verify: %v", err)
	}
	// Idempotence: everything is memoryless now; a second pass is a no-op.
	_, rep2, err := FitPhases(m, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Fits) != 0 || len(rep2.Refusals) != 0 {
		t.Fatalf("second pass must be a no-op, got %v / %v", rep2.Fits, rep2.Refusals)
	}
}

// TestFitPhasesMixtureStructure pins the branch-selector realization for a
// heavy-tailed lognormal (cv^2 > 1): a spin place feeds an instantaneous
// selector marking a branch place, and the activity reads the branch with a
// reactivating marking-dependent exponential.
func TestFitPhasesMixtureStructure(t *testing.T) {
	m := NewModel("fit-mixture")
	pending := m.AddPlace("pending", 1)
	done := m.AddPlace("done", 0)
	m.AddTimedActivity("outage", mustLognormal(t, 1.2, 1.0)).
		AddInputArc(pending, 1).
		AddOutputArc(done, 1)

	m, rep, err := FitPhases(m, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Refusals) != 0 {
		t.Fatalf("unexpected refusals: %v", rep.Refusals)
	}
	if len(rep.Fits) != 1 {
		t.Fatalf("expected one fit, got %v", rep.Fits)
	}
	ev := rep.Fits[0]
	if ev.Family != "hyperexponential" || ev.Phases != 2 || ev.MomentsMatched != 3 {
		t.Fatalf("evidence = %+v, want hyperexponential/2/3 moments", ev)
	}
	if got := rep.Touched(); len(got) != 1 || got[0] != "outage" {
		t.Fatalf("touched = %v, want [outage]", got)
	}
	// Fresh spin and branch places, one selector activity.
	if m.Place("outage/spin") == nil || m.Place("outage/branch") == nil {
		t.Fatal("spin/branch places missing")
	}
	sel := m.Activity("outage/select")
	if sel == nil {
		t.Fatal("selector activity missing")
	}
	if sel.kind != Instantaneous {
		t.Fatalf("selector must be instantaneous")
	}
	if len(sel.cases) != 2 {
		t.Fatalf("selector must have two cases, got %d", len(sel.cases))
	}
	a := m.Activity("outage")
	if a.fixedDelay != nil {
		t.Fatalf("fitted mixture delay must be marking-dependent, got fixed %T", a.fixedDelay)
	}
	if !a.reactivate {
		t.Fatal("fitted mixture activity must reactivate")
	}
	if len(a.inputGates) != 1 {
		t.Fatalf("fitted mixture activity must gain one input gate, got %d", len(a.inputGates))
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("fitted model invalid: %v", err)
	}
	if err := rep.Verify(m); err != nil {
		t.Fatalf("fresh fit must verify: %v", err)
	}
}

// TestFitPhasesMatchesSurrogateCDF closes the realization loop by
// simulation: the fitted model's completion-time CDF must match the
// certified surrogate's closed-form CDF — for both the chain and the
// branch-selector realization.
func TestFitPhasesMatchesSurrogateCDF(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation cross-check")
	}
	cases := []struct {
		name string
		d    dist.Distribution
		tol  float64
	}{
		{"chain", mustWeibull(t, 1.5, 1000), 0.2},
		{"mixture", mustLognormal(t, 1.2, 1.0), 0.25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := phfit.Fit(tc.d, tc.tol)
			if err != nil {
				t.Fatal(err)
			}
			m := NewModel("fit-sim-" + tc.name)
			pending := m.AddPlace("pending", 1)
			done := m.AddPlace("done", 0)
			m.AddTimedActivity("a", tc.d).AddInputArc(pending, 1).AddOutputArc(done, 1)
			fitted, _, err := FitPhases(m, tc.tol)
			if err != nil {
				t.Fatal(err)
			}
			sim := mustSimulator(t, fitted, []RewardVariable{
				{Name: "done", Mode: InstantAtEnd, Rate: func(mr MarkingReader) float64 {
					return float64(mr.Tokens(done))
				}},
			}, rng.NewStream(11, "fit-sim-"+tc.name))
			const n = 20000
			for _, p := range []float64{0.25, 0.5, 0.75} {
				mission := res.Surrogate.Quantile(p)
				hits := 0
				for i := 0; i < n; i++ {
					r, err := sim.Run(mission)
					if err != nil {
						t.Fatal(err)
					}
					if r.Rewards["done"] >= 1 {
						hits++
					}
				}
				emp := float64(hits) / n
				want := res.Surrogate.CDF(mission)
				// ~3 sigma of a Bernoulli(p) mean over n runs, plus slack.
				if math.Abs(emp-want) > 0.015 {
					t.Errorf("P(done by q%.2f) = %v, surrogate CDF = %v", p, emp, want)
				}
			}
		})
	}
}

// TestFitPhasesRefusals pins the classification of everything the pass must
// leave alone, including delays that belong to exact expansion.
func TestFitPhasesRefusals(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T, m *Model)
		want  string
	}{
		{
			name: "exactly expandable",
			build: func(t *testing.T, m *Model) {
				p := m.AddPlace("p", 1)
				m.AddTimedActivity("a", mustErlang(t, 3, 0.5)).AddInputArc(p, 1)
			},
			want: "run ExpandPhases first",
		},
		{
			name: "marking-dependent delay",
			build: func(t *testing.T, m *Model) {
				p := m.AddPlace("p", 1)
				u := mustUniform(t, 1, 2)
				m.AddTimedActivityFunc("a", func(MarkingReader) dist.Distribution { return u }).
					AddInputArc(p, 1)
			},
			want: "marking-dependent delay is not statically fittable",
		},
		{
			name: "no certified surrogate within tolerance",
			build: func(t *testing.T, m *Model) {
				p := m.AddPlace("p", 1)
				m.AddTimedActivity("a", mustUniform(t, 99, 101)).AddInputArc(p, 1)
			},
			want: "non-fittable",
		},
		{
			name: "reactivated chain candidate",
			build: func(t *testing.T, m *Model) {
				p := m.AddPlace("p", 1)
				m.AddTimedActivity("a", mustWeibull(t, 1.5, 1000)).AddInputArc(p, 1).
					SetReactivation(true)
			},
			want: "reactivation resamples",
		},
		{
			name: "shared consumer of a chain candidate",
			build: func(t *testing.T, m *Model) {
				p := m.AddPlace("p", 1)
				q := m.AddPlace("q", 0)
				m.AddTimedActivity("a", mustWeibull(t, 1.5, 1000)).AddInputArc(p, 1).AddOutputArc(q, 1)
				m.AddTimedActivity("rival", mustExpRate(t, 1)).AddInputArc(p, 1).AddOutputArc(q, 1)
			},
			want: `input place "p" has other consumers`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewModel("fit-refusal-" + tc.name)
			tc.build(t, m)
			before := m.NumActivities()
			m, rep, err := FitPhases(m, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Fits) != 0 {
				t.Fatalf("nothing may be fitted, got %v", rep.Fits)
			}
			if len(rep.Refusals) != 1 {
				t.Fatalf("expected one refusal, got %v", rep.Refusals)
			}
			r := rep.Refusals[0]
			if !strings.HasPrefix(r, RefusalNonFittable) {
				t.Fatalf("refusal %q must carry the %q prefix", r, RefusalNonFittable)
			}
			if !strings.Contains(r, tc.want) {
				t.Fatalf("refusal %q must mention %q", r, tc.want)
			}
			if m.NumActivities() != before {
				t.Fatalf("refused model must keep its shape: %d -> %d activities",
					before, m.NumActivities())
			}
		})
	}

	// Unusable tolerances are errors, not refusals.
	m := NewModel("fit-tol")
	p := m.AddPlace("p", 1)
	m.AddTimedActivity("a", mustWeibull(t, 1.5, 1000)).AddInputArc(p, 1)
	for _, tol := range []float64{0, 1, -0.5, math.NaN()} {
		if _, _, err := FitPhases(m, tol); err == nil {
			t.Errorf("FitPhases(tol=%v) must error", tol)
		}
	}
	// Memoryless activities appear in neither list.
	m2 := NewModel("fit-memoryless")
	p2 := m2.AddPlace("p", 1)
	m2.AddTimedActivity("a", mustExpRate(t, 2)).AddInputArc(p2, 1)
	_, rep, err := FitPhases(m2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Fits) != 0 || len(rep.Refusals) != 0 {
		t.Fatalf("exponential activity must be untouched, got %v / %v", rep.Fits, rep.Refusals)
	}
}

// TestFitReportVerifyTamper pins the ErrFitUnsound proof obligation for both
// realizations.
func TestFitReportVerifyTamper(t *testing.T) {
	m := NewModel("fit-verify-chain")
	p := m.AddPlace("p", 1)
	m.AddTimedActivity("a", mustWeibull(t, 1.5, 1000)).AddInputArc(p, 1)
	m, rep, err := FitPhases(m, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	m.Activity("a").fixedDelay = mustUniform(t, 1, 2)
	if err := rep.Verify(m); !errors.Is(err, ErrFitUnsound) {
		t.Fatalf("tampered chain delay must fail verification, got %v", err)
	}

	m2 := NewModel("fit-verify-mixture")
	p2 := m2.AddPlace("p", 1)
	m2.AddTimedActivity("a", mustLognormal(t, 1.2, 1.0)).AddInputArc(p2, 1)
	m2, rep2, err := FitPhases(m2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	m2.Activity("a").reactivate = false
	if err := rep2.Verify(m2); !errors.Is(err, ErrFitUnsound) {
		t.Fatalf("de-reactivated mixture must fail verification, got %v", err)
	}

	ghost := &FitReport{touched: []string{"ghost"}}
	if err := ghost.Verify(m); !errors.Is(err, ErrFitUnsound) {
		t.Fatalf("missing touched activity must fail verification, got %v", err)
	}
}

// TestReplicaClassFitPhases pins the petascale path: a non-expandable delay
// becomes a certified chain of stage exponentials, then the exact expansion
// turns the chain into counted local phase states.
func TestReplicaClassFitPhases(t *testing.T) {
	c := ReplicaClass{
		States:  []string{"up", "down"},
		Initial: "up",
		Transitions: []ReplicaTransition{
			{Name: "fail", From: "up", To: "down", Delay: mustExpRate(t, 0.01)},
			{Name: "repair", From: "down", To: "up", Delay: mustWeibull(t, 1.5, 1000)},
		},
	}
	out, fits, expansions, err := c.FitPhases(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 1 {
		t.Fatalf("expected one fit, got %v", fits)
	}
	ev := fits[0]
	if ev.Activity != "repair" || ev.Family != "hypoexponential" || ev.Phases != 3 {
		t.Fatalf("evidence = %+v, want repair/hypoexponential/3", ev)
	}
	if !(ev.Bound > 0 && ev.Bound <= 0.2) {
		t.Fatalf("bound = %v, want in (0, 0.2]", ev.Bound)
	}
	found := false
	for _, e := range expansions {
		if strings.Contains(e, `transition "repair"`) {
			found = true
		}
	}
	if !found {
		t.Fatalf("expansion evidence for the fitted chain missing: %v", expansions)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("fitted class invalid: %v", err)
	}
	// 2 original states + 2 phase states of the 3-stage chain.
	if len(out.States) != 4 {
		t.Fatalf("States = %v, want 4 entries", out.States)
	}
	for _, tr := range out.Transitions {
		if _, ok := tr.Delay.(dist.Exponential); !ok {
			t.Fatalf("transition %q delay not exponential after fit+expand: %T", tr.Name, tr.Delay)
		}
	}
	// The original class is untouched.
	if _, ok := c.Transitions[1].Delay.(dist.Weibull); !ok {
		t.Fatalf("input class mutated: %T", c.Transitions[1].Delay)
	}

	// Mixture surrogates are refused: no probabilistic branch in a replica
	// class.
	cMix := ReplicaClass{
		States:  []string{"up", "down"},
		Initial: "up",
		Transitions: []ReplicaTransition{
			{Name: "fail", From: "up", To: "down", Delay: mustExpRate(t, 0.01)},
			{Name: "outage", From: "down", To: "up", Delay: mustLognormal(t, 1.2, 1.0)},
		},
	}
	if _, _, _, err := cMix.FitPhases(0.25); err == nil ||
		!errors.Is(err, ErrNonExponential) ||
		!strings.Contains(err.Error(), RefusalNonFittable) ||
		!strings.Contains(err.Error(), "hyperexponential") {
		t.Fatalf("mixture fit must refuse with classified reason, got %v", err)
	}

	// Delays the fitter cannot certify refuse with the fitter's reason.
	cBad := ReplicaClass{
		States:  []string{"up", "down"},
		Initial: "up",
		Transitions: []ReplicaTransition{
			{Name: "t", From: "up", To: "down", Delay: mustUniform(t, 99, 101)},
		},
	}
	if _, _, _, err := cBad.FitPhases(0.2); err == nil ||
		!errors.Is(err, ErrNonExponential) ||
		!strings.Contains(err.Error(), RefusalNonFittable) {
		t.Fatalf("non-fittable delay must refuse with classified reason, got %v", err)
	}

	// Exactly expandable delays skip fitting and expand exactly.
	cErl := ReplicaClass{
		States:  []string{"up", "down"},
		Initial: "up",
		Transitions: []ReplicaTransition{
			{Name: "fail", From: "up", To: "down", Delay: mustExpRate(t, 0.01)},
			{Name: "repair", From: "down", To: "up", Delay: mustErlang(t, 3, 0.5)},
		},
	}
	outErl, fitsErl, expErl, err := cErl.FitPhases(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fitsErl) != 0 {
		t.Fatalf("exact expansion must not report fits, got %v", fitsErl)
	}
	if len(expErl) != 1 {
		t.Fatalf("expected one expansion evidence entry, got %v", expErl)
	}
	if err := outErl.Validate(); err != nil {
		t.Fatal(err)
	}
}
