package san

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
)

func mustErlang(t *testing.T, k int, rate float64) dist.Distribution {
	t.Helper()
	d, err := dist.NewErlang(k, rate)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustUniform(t *testing.T, lo, hi float64) dist.Distribution {
	t.Helper()
	d, err := dist.NewUniform(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustExpRate(t *testing.T, rate float64) dist.Exponential {
	t.Helper()
	d, err := dist.NewExponentialFromRate(rate)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestExpandPhasesErlangStructure pins the chain the pass builds for a
// 3-stage Erlang: two fresh phase places, a gate-guarded first stage, one
// pass-through middle stage, and the original activity as the final stage
// with an extra input arc and an exponential delay.
func TestExpandPhasesErlangStructure(t *testing.T) {
	m := NewModel("expand-structure")
	pending := m.AddPlace("pending", 1)
	done := m.AddPlace("done", 0)
	m.AddTimedActivity("repair", mustErlang(t, 3, 0.5)).
		AddInputArc(pending, 1).
		AddOutputArc(done, 1)

	m, rep, err := ExpandPhases(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Refusals) != 0 {
		t.Fatalf("unexpected refusals: %v", rep.Refusals)
	}
	if len(rep.Expanded) != 1 || !strings.Contains(rep.Expanded[0], `activity "repair"`) {
		t.Fatalf("expected one evidence entry for repair, got %v", rep.Expanded)
	}
	if !strings.Contains(rep.Expanded[0], "3 exponential phase(s)") {
		t.Fatalf("evidence must state the phase count: %q", rep.Expanded[0])
	}
	wantTouched := []string{"repair", "repair/phase1", "repair/phase2"}
	if got := rep.Touched(); len(got) != len(wantTouched) {
		t.Fatalf("touched = %v, want %v", got, wantTouched)
	} else {
		for i := range got {
			if got[i] != wantTouched[i] {
				t.Fatalf("touched = %v, want %v", got, wantTouched)
			}
		}
	}
	// Two fresh phase places, two new stage activities.
	if m.NumPlaces() != 4 {
		t.Fatalf("NumPlaces = %d, want 4", m.NumPlaces())
	}
	if m.NumActivities() != 3 {
		t.Fatalf("NumActivities = %d, want 3", m.NumActivities())
	}
	for _, name := range []string{"repair/phase1", "repair/phase2"} {
		if m.Activity(name) == nil {
			t.Fatalf("stage activity %q missing", name)
		}
		if m.Place(name) == nil {
			t.Fatalf("phase place %q missing", name)
		}
	}
	// The first stage is gate-guarded (checks, does not consume) and the
	// final stage is the original activity with the extra chain arc.
	first := m.Activity("repair/phase1")
	if len(first.inputArcs) != 0 || len(first.inputGates) != 1 {
		t.Fatalf("first stage must have no input arcs and one gate, got %d arcs, %d gates",
			len(first.inputArcs), len(first.inputGates))
	}
	final := m.Activity("repair")
	if len(final.inputArcs) != 2 {
		t.Fatalf("final stage must keep its arc and gain the chain arc, got %d arcs", len(final.inputArcs))
	}
	if _, ok := final.fixedDelay.(dist.Exponential); !ok {
		t.Fatalf("final stage delay must be exponential, got %T", final.fixedDelay)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("expanded model invalid: %v", err)
	}
	// Idempotence: everything is memoryless now, a second run is a no-op.
	_, rep2, err := ExpandPhases(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Expanded) != 0 || len(rep2.Refusals) != 0 {
		t.Fatalf("second pass must be a no-op, got %v / %v", rep2.Expanded, rep2.Refusals)
	}
}

// TestExpandPhasesSingleStageSwap pins the k == 1 special case: a shape-1
// Gamma is the exponential, so the delay is swapped in place with no new
// places or activities and no structural preconditions.
func TestExpandPhasesSingleStageSwap(t *testing.T) {
	g, err := dist.NewGamma(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel("expand-swap")
	p := m.AddPlace("p", 1)
	q := m.AddPlace("q", 0)
	// Even structurally hostile contexts (another consumer of p) are fine:
	// the swap does not build a chain.
	m.AddTimedActivity("swap", g).AddInputArc(p, 1).AddOutputArc(q, 1)
	m.AddTimedActivity("rival", mustExpRate(t, 1)).AddInputArc(p, 1).AddOutputArc(q, 1)

	m, rep, err := ExpandPhases(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Expanded) != 1 || len(rep.Refusals) != 0 {
		t.Fatalf("expected exactly one expansion, got %v / %v", rep.Expanded, rep.Refusals)
	}
	if m.NumPlaces() != 2 || m.NumActivities() != 2 {
		t.Fatalf("swap must not add places or activities: %d places, %d activities",
			m.NumPlaces(), m.NumActivities())
	}
	fd, ok := m.Activity("swap").fixedDelay.(dist.Exponential)
	if !ok {
		t.Fatalf("delay not swapped to exponential: %T", m.Activity("swap").fixedDelay)
	}
	if got := fd.Rate(); got != 0.5 {
		t.Fatalf("swapped rate = %v, want 0.5 (1/scale)", got)
	}
}

// TestExpandPhasesRefusals pins the classification of every delay the pass
// must leave alone: each case gets a RefusalNonExpandable reason naming the
// distribution or the failed structural precondition, and the model keeps
// its shape.
func TestExpandPhasesRefusals(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T, m *Model)
		want  string
	}{
		{
			name: "no finite phase form",
			build: func(t *testing.T, m *Model) {
				p := m.AddPlace("p", 1)
				m.AddTimedActivity("a", mustUniform(t, 1, 2)).AddInputArc(p, 1)
			},
			want: "no exact finite phase-type form",
		},
		{
			name: "marking-dependent delay",
			build: func(t *testing.T, m *Model) {
				p := m.AddPlace("p", 1)
				u := mustUniform(t, 1, 2)
				m.AddTimedActivityFunc("a", func(MarkingReader) dist.Distribution { return u }).
					AddInputArc(p, 1)
			},
			want: "marking-dependent delay is not statically expandable",
		},
		{
			name: "reactivation",
			build: func(t *testing.T, m *Model) {
				p := m.AddPlace("p", 1)
				a := m.AddTimedActivity("a", mustErlang(t, 2, 1)).AddInputArc(p, 1)
				a.SetReactivation(true)
			},
			want: "reactivation resamples",
		},
		{
			name: "input gate",
			build: func(t *testing.T, m *Model) {
				p := m.AddPlace("p", 1)
				m.AddTimedActivity("a", mustErlang(t, 2, 1)).
					AddInputGate(&InputGate{
						Name:    "g",
						Reads:   []*Place{p},
						Enabled: func(mr MarkingReader) bool { return mr.Tokens(p) > 0 },
					})
			},
			want: "input-gate enabling cannot be proven stable",
		},
		{
			name: "shared consumer",
			build: func(t *testing.T, m *Model) {
				p := m.AddPlace("p", 1)
				q := m.AddPlace("q", 0)
				m.AddTimedActivity("a", mustErlang(t, 2, 1)).AddInputArc(p, 1).AddOutputArc(q, 1)
				m.AddTimedActivity("rival", mustExpRate(t, 1)).AddInputArc(p, 1).AddOutputArc(q, 1)
			},
			want: `input place "p" has other consumers`,
		},
		{
			name: "gate transform writes input place",
			build: func(t *testing.T, m *Model) {
				p := m.AddPlace("p", 1)
				q := m.AddPlace("q", 1)
				r := m.AddPlace("r", 0)
				m.AddTimedActivity("a", mustErlang(t, 2, 1)).AddInputArc(p, 1).AddOutputArc(r, 1)
				m.AddTimedActivity("refill", mustExpRate(t, 1)).AddInputArc(q, 1).
					AddCase(Case{OutputGates: []*OutputGate{{
						Name:      "og",
						Transform: func(mw MarkingWriter) { mw.Add(p, 1) },
					}}})
			},
			want: `input place "p" is written by a gate transform`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewModel("refusal-" + tc.name)
			tc.build(t, m)
			before := m.NumActivities()
			m, rep, err := ExpandPhases(m)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Expanded) != 0 {
				t.Fatalf("nothing may expand, got %v", rep.Expanded)
			}
			if len(rep.Refusals) != 1 {
				t.Fatalf("expected one refusal, got %v", rep.Refusals)
			}
			r := rep.Refusals[0]
			if !strings.HasPrefix(r, RefusalNonExpandable) {
				t.Fatalf("refusal %q must carry the %q prefix", r, RefusalNonExpandable)
			}
			if !strings.Contains(r, tc.want) {
				t.Fatalf("refusal %q must mention %q", r, tc.want)
			}
			if m.NumActivities() != before {
				t.Fatalf("refused model must keep its shape: %d -> %d activities", before, m.NumActivities())
			}
		})
	}
}

// TestChainProofProbesLazily pins when the expansion and fit passes run gate
// transforms: only once a multi-stage chain needs the stable-enabling proof,
// and then once per pass, however many chains ask. A model whose only
// non-memoryless delays are Uniform and Weibull — the shape of the flat ABE
// configurations — is refused (or fitted as a mixture, which needs no proof)
// without a single probe, with the refusals the passes always gave it.
func TestChainProofProbesLazily(t *testing.T) {
	// build returns the fixture with the given number of extra chain
	// candidates, and a pointer to its gate transform's call count.
	build := func(t *testing.T, chain dist.Distribution, chains int) (*Model, *int) {
		calls := new(int)
		m := NewModel("lazy-probe")
		up := m.AddPlace("up", 1)
		down := m.AddPlace("down", 0)
		m.AddTimedActivity("disk_fail", mustWeibull(t, 0.7, 1000)).AddInputArc(up, 1).AddOutputArc(down, 1)
		m.AddTimedActivity("disk_replace", mustUniform(t, 99, 101)).AddInputArc(down, 1).
			AddCase(Case{OutputGates: []*OutputGate{{
				Name:      "restore",
				Transform: func(mw MarkingWriter) { *calls++; mw.Add(up, 1) },
			}}})
		for i := range chains {
			p := m.AddPlace(fmt.Sprintf("pending%d", i), 1)
			m.AddTimedActivity(fmt.Sprintf("chain%d", i), chain).AddInputArc(p, 1)
		}
		return m, calls
	}
	passes := []struct {
		name     string
		run      func(m *Model) (refusals []string, rewritten int, err error)
		chain    dist.Distribution // a delay the pass rewrites into a multi-stage chain
		refusals []string
	}{
		{
			name: "ExpandPhases",
			run: func(m *Model) ([]string, int, error) {
				_, rep, err := ExpandPhases(m)
				if err != nil {
					return nil, 0, err
				}
				return rep.Refusals, len(rep.Expanded), nil
			},
			chain: mustErlang(t, 3, 0.5),
			refusals: []string{
				`non-expandable: activity "disk_fail": weibull(scale=1000, shape=0.7) has no exact finite phase-type form`,
				`non-expandable: activity "disk_replace": uniform(hi=101, lo=99) has no exact finite phase-type form`,
			},
		},
		{
			name: "FitPhases",
			run: func(m *Model) ([]string, int, error) {
				_, rep, err := FitPhases(m, 0.1)
				if err != nil {
					return nil, 0, err
				}
				return rep.Refusals, len(rep.Fits), nil
			},
			chain: mustWeibull(t, 1.5, 1000),
			refusals: []string{
				`non-fittable: activity "disk_replace": phfit: no phase-type surrogate within tolerance: ` +
					`uniform(hi=101, lo=99) has squared coefficient of variation 3.333e-05; matching it needs more than the 64-phase budget`,
			},
		},
	}
	for _, pass := range passes {
		t.Run(pass.name, func(t *testing.T) {
			m, calls := build(t, pass.chain, 0)
			refusals, _, err := pass.run(m)
			if err != nil {
				t.Fatal(err)
			}
			if *calls != 0 {
				t.Errorf("no chain needs the proof, yet the gate transform ran %d times", *calls)
			}
			if !slices.Equal(refusals, pass.refusals) {
				t.Errorf("refusals = %q, want %q", refusals, pass.refusals)
			}
			// Chain candidates do probe, once for the whole pass.
			probes := make([]int, 3)
			for chains := 1; chains < len(probes); chains++ {
				m, calls := build(t, pass.chain, chains)
				_, rewritten, err := pass.run(m)
				if err != nil {
					t.Fatal(err)
				}
				if rewritten < chains {
					t.Fatalf("%d chain candidate(s), only %d rewritten", chains, rewritten)
				}
				probes[chains] = *calls
			}
			if probes[1] == 0 || probes[2] != probes[1] {
				t.Errorf("gate transform calls with 1 and 2 chains = %d, %d; want the same nonzero count", probes[1], probes[2])
			}
		})
	}
}

// TestExpansionReportVerifyTamper pins the proof obligation: a touched
// activity whose delay is not memoryless after the pass is an
// ErrExpansionUnsound, as is a touched activity missing from the model.
func TestExpansionReportVerifyTamper(t *testing.T) {
	m := NewModel("verify-tamper")
	p := m.AddPlace("p", 1)
	q := m.AddPlace("q", 0)
	m.AddTimedActivity("a", mustErlang(t, 2, 1)).AddInputArc(p, 1).AddOutputArc(q, 1)
	m, rep, err := ExpandPhases(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(m); err != nil {
		t.Fatalf("fresh expansion must verify: %v", err)
	}
	m.Activity("a").fixedDelay = mustUniform(t, 1, 2)
	if err := rep.Verify(m); !errors.Is(err, ErrExpansionUnsound) {
		t.Fatalf("tampered delay must fail verification with ErrExpansionUnsound, got %v", err)
	}
	rep2 := &ExpansionReport{touched: []string{"ghost"}}
	if err := rep2.Verify(m); !errors.Is(err, ErrExpansionUnsound) {
		t.Fatalf("missing touched activity must fail verification, got %v", err)
	}
}

// TestRewritePassesLeaveInputUntouched pins the purity of ExpandPhases and
// FitPhases: each returns a rewritten copy and leaves its input — already
// compiled here — exactly as it was. The model has an Erlang chain
// (expanded), a Weibull wear-out (fitted as a chain) and a heavy-tailed
// lognormal (cv² > 1, fitted as a hyperexponential, whose realization
// appends an input gate and an output arc and gate to every case). The
// slices those rewrites append to are given spare capacity, and the
// snapshot reads each one up to its capacity, so an append that wrote
// through the input's backing array would show even where the input's own
// length hides it.
func TestRewritePassesLeaveInputUntouched(t *testing.T) {
	m := NewModel("rewrite-purity")
	broken := m.AddPlace("broken", 1)
	fixed := m.AddPlace("fixed", 0)
	worn := m.AddPlace("worn", 1)
	failed := m.AddPlace("failed", 0)
	pending := m.AddPlace("pending", 1)
	done := m.AddPlace("done", 0)
	repair := m.AddTimedActivity("repair", mustErlang(t, 3, 0.5)).AddOutputArc(fixed, 1)
	repair.inputArcs = append(make([]Arc, 0, 4), Arc{Place: broken, Mult: 1})
	m.AddTimedActivity("break", mustExpRate(t, 0.5)).AddInputArc(fixed, 1).AddOutputArc(broken, 1)
	wear := m.AddTimedActivity("wear", mustWeibull(t, 1.5, 100)).AddOutputArc(failed, 1)
	wear.inputArcs = append(make([]Arc, 0, 4), Arc{Place: worn, Mult: 1})
	m.AddTimedActivity("renew", mustExpRate(t, 0.1)).AddInputArc(failed, 1).AddOutputArc(worn, 1)
	outage := m.AddTimedActivity("outage", mustLognormal(t, 1.2, 1.0)).AddInputArc(pending, 1).
		AddCase(Case{
			OutputArcs: append(make([]Arc, 0, 4), Arc{Place: done, Mult: 1}),
			OutputGates: append(make([]*OutputGate, 0, 4), &OutputGate{
				Name: "log", Transform: func(MarkingWriter) {},
			}),
		})
	outage.inputGates = append(make([]*InputGate, 0, 4), &InputGate{
		Name: "ready", Reads: []*Place{done}, Enabled: func(mr MarkingReader) bool { return mr.Tokens(done) == 0 },
	})
	outage.cases = slices.Grow(outage.cases, 3)
	m.AddTimedActivity("restart", mustExpRate(t, 1)).AddInputArc(done, 1).AddOutputArc(pending, 1)

	rewards := []RewardVariable{
		UpFraction("fixed", func(mr MarkingReader) bool { return mr.Tokens(fixed) == 1 }),
		UpFraction("worn", func(mr MarkingReader) bool { return mr.Tokens(worn) == 1 }),
		CompletionCount("outages", "outage"),
	}
	cm, err := Compile(m, rewards)
	if err != nil {
		t.Fatal(err)
	}
	simulate := func() Result {
		t.Helper()
		sim, err := cm.NewSimulator(rng.NewStream(7, "rewrite-purity"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(500)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	before, simBefore := rewriteSnapshot(m), simulate()

	expanded, exRep, err := ExpandPhases(m)
	if err != nil {
		t.Fatal(err)
	}
	afterExpand := rewriteSnapshot(expanded)
	fitted, fitRep, err := FitPhases(expanded, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(exRep.Expanded) != 1 || len(fitRep.Fits) != 2 || fitRep.Fits[0].Family != "hypoexponential" ||
		fitRep.Fits[1].Family != "hyperexponential" {
		t.Fatalf("want one expansion and a chain plus a mixture fit, got %v / %+v", exRep.Expanded, fitRep.Fits)
	}
	if fitted.NumActivities() <= expanded.NumActivities() || expanded.NumActivities() <= m.NumActivities() {
		t.Fatalf("each pass must add activities to its copy: %d -> %d -> %d",
			m.NumActivities(), expanded.NumActivities(), fitted.NumActivities())
	}

	if got := rewriteSnapshot(m); got != before {
		t.Errorf("the passes changed their input:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	if got := rewriteSnapshot(expanded); got != afterExpand {
		t.Errorf("FitPhases changed its input:\nbefore:\n%s\nafter:\n%s", afterExpand, got)
	}
	if simAfter := simulate(); !reflect.DeepEqual(simAfter, simBefore) {
		t.Errorf("simulation of the compiled input changed: %+v, want %+v", simAfter, simBefore)
	}
}

// rewriteSnapshot renders everything a rewrite pass could change on m: the
// name maps, the places, and per activity its kind, index, reactivation,
// delays, and its arcs, gates and cases, by identity and with each slice
// read up to its capacity.
func rewriteSnapshot(m *Model) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d/%d names\n", m.name, len(m.placeByNm), len(m.actByName))
	fmt.Fprintf(&b, "places %d %v\n", len(m.places), m.places[:cap(m.places)])
	fmt.Fprintf(&b, "activities %d %v\n", len(m.activities), m.activities[:cap(m.activities)])
	for _, p := range m.places {
		fmt.Fprintf(&b, "place %p %q index=%d initial=%d byName=%v\n", p, p.name, p.index, p.initial, m.Place(p.name) == p)
	}
	initial := staticMarking(m.InitialMarking())
	describe := func(d dist.Distribution) string {
		if d == nil {
			return "none"
		}
		return dist.Describe(d)
	}
	for _, a := range m.activities {
		fmt.Fprintf(&b, "activity %p %q %v index=%d byName=%v reactivate=%v fixed=%s delay=%s\n",
			a, a.name, a.kind, a.index, m.Activity(a.name) == a, a.reactivate, describe(a.fixedDelay), describe(a.DelayAt(initial)))
		fmt.Fprintf(&b, "  input arcs %d %v\n", len(a.inputArcs), a.inputArcs[:cap(a.inputArcs)])
		fmt.Fprintf(&b, "  input gates %d %v\n", len(a.inputGates), a.inputGates[:cap(a.inputGates)])
		fmt.Fprintf(&b, "  cases %d\n", len(a.cases))
		for _, c := range a.cases[:cap(a.cases)] {
			fmt.Fprintf(&b, "    probability=%v output arcs %d %v output gates %d %v\n", c.Probability != nil,
				len(c.OutputArcs), c.OutputArcs[:cap(c.OutputArcs)], len(c.OutputGates), c.OutputGates[:cap(c.OutputGates)])
		}
	}
	return b.String()
}

// TestReplicateGroupsSurviveRewrites records nested Replicate groups on the
// model and checks that ExpandPhases and FitPhases carry the record into
// their copies, with the phase places they add named under the owning
// instance, so exploration can still align the instances.
func TestReplicateGroupsSurviveRewrites(t *testing.T) {
	erlang, err := dist.NewGamma(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	wearOut, err := dist.NewWeibull(1.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	repair, err := dist.NewExponentialFromRate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel("groups")
	err = Replicate(m, "tier", 2, func(m *Model, tier string, _ int) error {
		return Replicate(m, Qualify(tier, "disk"), 3, func(m *Model, disk string, _ int) error {
			up := m.AddPlace(Qualify(disk, "up"), 1)
			down := m.AddPlace(Qualify(disk, "down"), 0)
			life := dist.Distribution(erlang)
			if disk == "tier[1]/disk[2]" {
				life = wearOut
			}
			m.AddTimedActivity(Qualify(disk, "fail"), life).AddInputArc(up, 1).AddOutputArc(down, 1)
			m.AddTimedActivity(Qualify(disk, "repair"), repair).AddInputArc(down, 1).AddOutputArc(up, 1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []ReplicateGroup{{"tier[0]/disk", 3}, {"tier[1]/disk", 3}, {"tier", 2}}
	if got := m.ReplicateGroups(); !reflect.DeepEqual(got, want) {
		t.Fatalf("groups %v, want %v", got, want)
	}
	expanded, _, err := ExpandPhases(m)
	if err != nil {
		t.Fatal(err)
	}
	fitted, rep, err := FitPhases(expanded, 0.1)
	if err != nil || len(rep.Fits) != 1 {
		t.Fatalf("fit: %v, %d fits", err, len(rep.Fits))
	}
	for _, out := range []*Model{expanded, fitted} {
		if got := out.ReplicateGroups(); !reflect.DeepEqual(got, want) {
			t.Fatalf("rewritten copy groups %v, want %v", got, want)
		}
	}
	for _, name := range []string{"tier[0]/disk[1]/fail/phase2", "tier[1]/disk[2]/fail/phase1"} {
		if fitted.Place(name) == nil {
			t.Fatalf("phase place %q missing", name)
		}
	}
}
