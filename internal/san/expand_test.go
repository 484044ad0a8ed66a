package san

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dist"
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

	rep, err := ExpandPhases(m)
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
	rep2, err := ExpandPhases(m)
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

	rep, err := ExpandPhases(m)
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
			rep, err := ExpandPhases(m)
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
				rep, err := ExpandPhases(m)
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
				rep, err := FitPhases(m, 0.1)
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
	rep, err := ExpandPhases(m)
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

// TestReplicaClassExpandPhases pins the lumped-form chain: phase states
// become local states, the final stage keeps the transition's name,
// destination, and effect, and exponential competitors are replicated from
// every phase state.
func TestReplicaClassExpandPhases(t *testing.T) {
	fired := 0
	c := ReplicaClass{
		States:  []string{"up", "down"},
		Initial: "up",
		Transitions: []ReplicaTransition{
			{Name: "fail", From: "up", To: "down", Delay: mustExpRate(t, 0.01)},
			{Name: "repair", From: "down", To: "up", Delay: mustErlang(t, 3, 0.5),
				Effect: func(MarkingWriter) { fired++ }},
			{Name: "scrap", From: "down", To: "up", Delay: mustExpRate(t, 0.001)},
		},
	}
	out, evidence, err := c.ExpandPhases()
	if err != nil {
		t.Fatal(err)
	}
	if len(evidence) != 1 || !strings.Contains(evidence[0], `transition "repair"`) {
		t.Fatalf("expected one evidence entry for repair, got %v", evidence)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("expanded class invalid: %v", err)
	}
	// 2 original states + 2 phase states.
	if len(out.States) != 4 {
		t.Fatalf("States = %v, want 4 entries", out.States)
	}
	byName := map[string]ReplicaTransition{}
	for _, tr := range out.Transitions {
		byName[tr.Name] = tr
	}
	final, ok := byName["repair"]
	if !ok {
		t.Fatalf("final stage must keep the name \"repair\": %v", out.Transitions)
	}
	if final.From != "repair/phase2" || final.To != "up" || final.Effect == nil {
		t.Fatalf("final stage misplaced: %+v", final)
	}
	if _, ok := byName["repair/phase1"]; !ok {
		t.Fatalf("first stage missing: %v", out.Transitions)
	}
	// "scrap" shares the chain's From state ("down"), so it is replicated
	// from both phase states; "fail" leaves "up" and must not be.
	for _, want := range []string{"scrap@repair/phase1", "scrap@repair/phase2"} {
		tr, ok := byName[want]
		if !ok {
			t.Fatalf("competitor %q not replicated: %v", want, out.Transitions)
		}
		if tr.To != "up" {
			t.Fatalf("replicated competitor %q must keep its destination, got %q", want, tr.To)
		}
	}
	for name := range byName {
		if strings.HasPrefix(name, "fail@") {
			t.Fatalf("transition %q wrongly replicated: it does not leave the chain's From state", name)
		}
	}
}

// TestReplicaClassExpandPhasesRefusals pins the lumped-form refusals: no
// finite phase form, two chains out of one state, and a non-exponential
// competitor racing a chain.
func TestReplicaClassExpandPhasesRefusals(t *testing.T) {
	cases := []struct {
		name string
		c    ReplicaClass
		want string
	}{
		{
			name: "no finite phase form",
			c: ReplicaClass{
				States: []string{"a", "b"}, Initial: "a",
				Transitions: []ReplicaTransition{
					{Name: "t", From: "a", To: "b", Delay: mustUniform(t, 1, 2)},
				},
			},
			want: "no exact finite phase-type form",
		},
		{
			name: "two chains out of one state",
			c: ReplicaClass{
				States: []string{"a", "b"}, Initial: "a",
				Transitions: []ReplicaTransition{
					{Name: "t1", From: "a", To: "b", Delay: mustErlang(t, 2, 1)},
					{Name: "t2", From: "a", To: "b", Delay: mustErlang(t, 3, 1)},
				},
			},
			want: "both need phase chains",
		},
		{
			// A non-phase-type competitor is refused by the same phase-form
			// check whether or not it races a chain: the class can never
			// become all-exponential with it present.
			name: "non-phase-type competitor of a chain",
			c: ReplicaClass{
				States: []string{"a", "b"}, Initial: "a",
				Transitions: []ReplicaTransition{
					{Name: "t1", From: "a", To: "b", Delay: mustErlang(t, 2, 1)},
					{Name: "t2", From: "a", To: "b", Delay: mustUniform(t, 1, 2)},
				},
			},
			want: "no exact finite phase-type form",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := tc.c.ExpandPhases()
			if err == nil {
				t.Fatal("expected a refusal error")
			}
			if !errors.Is(err, ErrNonExponential) {
				t.Fatalf("refusal must wrap ErrNonExponential: %v", err)
			}
			if !strings.Contains(err.Error(), RefusalNonExpandable) {
				t.Fatalf("refusal %v must carry %q", err, RefusalNonExpandable)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("refusal %v must mention %q", err, tc.want)
			}
		})
	}
}

// TestReplicaClassExpandSingleStageCompetitor pins the race with a
// single-stage expandable competitor: the shape-1 Gamma is swapped for its
// exponential both on its own transition and on every per-phase copy.
func TestReplicaClassExpandSingleStageCompetitor(t *testing.T) {
	g, err := dist.NewGamma(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := ReplicaClass{
		States: []string{"a", "b"}, Initial: "a",
		Transitions: []ReplicaTransition{
			{Name: "chain", From: "a", To: "b", Delay: mustErlang(t, 2, 1)},
			{Name: "swap", From: "a", To: "b", Delay: g},
		},
	}
	out, evidence, err := c.ExpandPhases()
	if err != nil {
		t.Fatal(err)
	}
	if len(evidence) != 2 {
		t.Fatalf("both transitions must report evidence, got %v", evidence)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("expanded class invalid: %v", err)
	}
	for _, tr := range out.Transitions {
		e, ok := tr.Delay.(dist.Exponential)
		if !ok {
			t.Fatalf("transition %q delay not exponential: %T", tr.Name, tr.Delay)
		}
		if strings.HasPrefix(tr.Name, "swap") && e.Rate() != 0.25 {
			t.Fatalf("swapped competitor %q rate = %v, want 0.25 (1/scale)", tr.Name, e.Rate())
		}
	}
	if _, ok := func() (ReplicaTransition, bool) {
		for _, tr := range out.Transitions {
			if tr.Name == "swap@chain/phase1" {
				return tr, true
			}
		}
		return ReplicaTransition{}, false
	}(); !ok {
		t.Fatalf("per-phase competitor copy missing: %v", out.Transitions)
	}
}

// TestReplicaClassExpandLumpedAcceptance closes the loop: an Erlang class
// is rejected by ReplicateLumped as written, and accepted after expansion.
func TestReplicaClassExpandLumpedAcceptance(t *testing.T) {
	c := ReplicaClass{
		States:  []string{"up", "down"},
		Initial: "up",
		Transitions: []ReplicaTransition{
			{Name: "fail", From: "up", To: "down", Delay: mustExpRate(t, 0.01)},
			{Name: "repair", From: "down", To: "up", Delay: mustErlang(t, 2, 0.5)},
		},
	}
	m := NewModel("lump-reject")
	if _, err := ReplicateLumped(m, "pool", 4, c); !errors.Is(err, ErrNonExponential) {
		t.Fatalf("unexpanded Erlang class must be rejected, got %v", err)
	}
	out, evidence, err := c.ExpandPhases()
	if err != nil {
		t.Fatal(err)
	}
	if len(evidence) != 1 {
		t.Fatalf("expected one evidence entry, got %v", evidence)
	}
	m2 := NewModel("lump-accept")
	lp, err := ReplicateLumped(m2, "pool", 4, out)
	if err != nil {
		t.Fatalf("expanded class must lump: %v", err)
	}
	if lp.State("repair/phase1") == nil {
		t.Fatal("phase state must have a counting place")
	}
	if err := m2.Validate(); err != nil {
		t.Fatalf("lumped model invalid: %v", err)
	}
}
