package statespace_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/rareevent"
	"repro/internal/san"
	"repro/internal/statespace"
)

func mustExpRate(t *testing.T, rate float64) dist.Exponential {
	t.Helper()
	d, err := dist.NewExponentialFromRate(rate)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// buildBirthDeath builds the lumped replica population whose down-count is a
// birth-death chain on {0..n}: n replicas failing at rate lambda and
// repairing at rate mu, with repair gated off in the all-down state so it is
// absorbing, plus a hit-probability reward.
func buildBirthDeath(t *testing.T, n int, lambda, mu float64) *san.CompiledModel {
	t.Helper()
	m := san.NewModel("bd")
	lp, err := san.ReplicateLumped(m, "pool", n, san.ReplicaClass{
		States:  []string{"up", "down"},
		Initial: "up",
		Transitions: []san.ReplicaTransition{
			{Name: "fail", From: "up", To: "down", Delay: mustExpRate(t, lambda)},
			{Name: "repair", From: "down", To: "up", Delay: mustExpRate(t, mu)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	down := lp.State("down")
	m.Activity(lp.ActivityName("repair")).AddInputGate(&san.InputGate{
		Name:    "absorb",
		Reads:   []*san.Place{down},
		Enabled: func(mr san.MarkingReader) bool { return mr.Tokens(down) < n },
	})
	cm, err := san.Compile(m, []san.RewardVariable{{
		Name: "hit", Mode: san.InstantAtEnd,
		Rate: func(mr san.MarkingReader) float64 {
			if mr.Tokens(down) == n {
				return 1
			}
			return 0
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// TestGoldenBirthDeath pins the generated CTMC of a lumped replica
// birth-death population against the hand-built chain behind
// rareevent.BirthDeathHitProbability: same state count, the exact aggregate
// rates, and the same transient answer.
func TestGoldenBirthDeath(t *testing.T) {
	const (
		n       = 4
		lambda  = 1.0 / 1000
		mu      = 1.0 / 24
		horizon = 8760.0
	)
	cm := buildBirthDeath(t, n, lambda, mu)
	gen, cert := statespace.Certify(cm, statespace.Options{})
	if !cert.Certified() {
		t.Fatalf("refused: %s", cert.Summary())
	}
	if len(gen.States) != n+1 {
		t.Fatalf("got %d states, want %d", len(gen.States), n+1)
	}

	// The generated rates must be exactly the lumped count x rate values.
	// Map each state to its down-count (state order is BFS, not count order).
	down := cm.Model().Place("pool/state/down")
	perFail := mustExpRate(t, lambda).Rate()
	perRepair := mustExpRate(t, mu).Rate()
	marks := markings(gen)
	for s, mark := range marks {
		k := mark[down.Index()]
		wantFail, wantRepair := 0.0, 0.0
		if k < n {
			wantFail = mustExpRate(t, perFail*float64(n-k)).Rate()
		}
		if k > 0 && k < n {
			wantRepair = mustExpRate(t, perRepair*float64(k)).Rate()
		}
		gotFail, gotRepair := 0.0, 0.0
		for _, tr := range edgesOf(gen, s) {
			switch marks[tr.to][down.Index()] {
			case k + 1:
				gotFail += tr.rate
			case k - 1:
				gotRepair += tr.rate
			default:
				t.Fatalf("state down=%d: unexpected edge %+v", k, tr)
			}
		}
		if gotFail != wantFail || gotRepair != wantRepair {
			t.Fatalf("state down=%d: rates fail=%v repair=%v, want %v/%v", k, gotFail, gotRepair, wantFail, wantRepair)
		}
	}

	// Transient hit probability must agree with the reference uniformization.
	birth := make([]float64, n)
	death := make([]float64, n)
	for i := 0; i < n; i++ {
		birth[i] = mustExpRate(t, perFail*float64(n-i)).Rate()
		if i > 0 {
			death[i] = mustExpRate(t, perRepair*float64(i)).Rate()
		}
	}
	want, err := rareevent.BirthDeathHitProbability(birth, death, horizon)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gen.SolveTransient(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got["hit"]-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("hit probability %v, reference %v", got["hit"], want)
	}

	// The population invariant up + down = n must bound both places.
	if cert.PInvariants == 0 {
		t.Fatal("no P-invariants found for a closed population")
	}
	for _, pb := range cert.PlaceBounds {
		if pb.Bound != n || pb.Proof != san.ProofPInvariant {
			t.Fatalf("place %q: bound %d proof %q, want %d via %s (invariant %q)",
				pb.Place, pb.Bound, pb.Proof, n, san.ProofPInvariant, pb.Invariant)
		}
		if pb.Invariant == "" {
			t.Fatalf("place %q: missing invariant evidence", pb.Place)
		}
	}
}

// TestTransientMatchesClosedForm checks the solver against the closed-form
// interval availability of a two-state machine starting up:
// A(T) = mu/(l+mu) + l/(l+mu) · (1 - e^{-(l+mu)T}) / ((l+mu)·T).
func TestTransientMatchesClosedForm(t *testing.T) {
	const (
		lambda = 0.01
		mu     = 0.2
		T      = 500.0
	)
	m := san.NewModel("machine")
	up := m.AddPlace("up", 1)
	dn := m.AddPlace("down", 0)
	m.AddTimedActivity("fail", mustExpRate(t, lambda)).AddInputArc(up, 1).AddOutputArc(dn, 1)
	m.AddTimedActivity("repair", mustExpRate(t, mu)).AddInputArc(dn, 1).AddOutputArc(up, 1)
	cm, err := san.Compile(m, []san.RewardVariable{
		san.UpFraction("avail", func(mr san.MarkingReader) bool { return mr.Tokens(up) == 1 }),
		san.CompletionCount("repairs", "repair"),
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, cert := statespace.Certify(cm, statespace.Options{})
	if !cert.Certified() {
		t.Fatalf("refused: %s", cert.Summary())
	}
	got, err := gen.SolveTransient(T)
	if err != nil {
		t.Fatal(err)
	}
	s := lambda + mu
	want := mu/s + lambda/s*(1-math.Exp(-s*T))/(s*T)
	if math.Abs(got["avail"]-want) > 1e-10 {
		t.Fatalf("availability %v, closed form %v", got["avail"], want)
	}
	// Expected repairs over [0, T]: mu · E[time down].
	wantRepairs := mu * (1 - want) * T
	if math.Abs(got["repairs"]-wantRepairs) > 1e-8*wantRepairs {
		t.Fatalf("repairs %v, closed form %v", got["repairs"], wantRepairs)
	}
}

// TestVanishingCaseBranching checks that instantaneous-case probabilities
// become transition-probability mass: a timed firing hands a token to an
// instantaneous router that sends it left with probability 0.4.
func TestVanishingCaseBranching(t *testing.T) {
	m := san.NewModel("router")
	src := m.AddPlace("src", 1)
	mid := m.AddPlace("mid", 0)
	left := m.AddPlace("left", 0)
	right := m.AddPlace("right", 0)
	m.AddTimedActivity("go", mustExpRate(t, 2)).AddInputArc(src, 1).AddOutputArc(mid, 1)
	m.AddInstantaneousActivity("route").
		AddInputArc(mid, 1).
		AddCase(san.Case{
			Probability: func(san.MarkingReader) float64 { return 0.4 },
			OutputArcs:  []san.Arc{{Place: left, Mult: 1}},
		}).
		AddCase(san.Case{
			OutputArcs: []san.Arc{{Place: right, Mult: 1}},
		})
	cm, err := san.Compile(m, []san.RewardVariable{
		{Name: "left", Mode: san.InstantAtEnd, Rate: func(mr san.MarkingReader) float64 { return float64(mr.Tokens(left)) }},
		{Name: "routed", Mode: san.Accumulated, Impulses: map[string]san.ImpulseFunc{
			"route": func(san.MarkingReader) float64 { return 1 },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, cert := statespace.Certify(cm, statespace.Options{})
	if !cert.Certified() {
		t.Fatalf("refused: %s", cert.Summary())
	}
	if len(gen.States) != 3 {
		t.Fatalf("got %d tangible states, want 3 (vanishing mid eliminated)", len(gen.States))
	}
	got, err := gen.SolveTransient(50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got["left"]-0.4) > 1e-12 {
		t.Fatalf("left mass %v, want 0.4", got["left"])
	}
	if math.Abs(got["routed"]-1) > 1e-12 {
		t.Fatalf("routed impulses %v, want 1", got["routed"])
	}
}

// TestIllFormedCaseMasses certifies the ill-formed case masses the
// simulator's TestSelectCase* fixtures draw from, and checks that every edge
// of the drawing activity carries its rate times CaseMasses over the total,
// zero mass falling to the last case. Each fixture runs on both firing paths
// of the explorer: the scratch path, and the branch path a model with
// instantaneous activities takes.
func TestIllFormedCaseMasses(t *testing.T) {
	const rate = 0.5
	nilProb := math.NaN() // marks a nil-probability case
	fixtures := []struct {
		name   string
		pa, pb float64
	}{
		{"clamped negative", -0.5, nilProb},
		{"over-unity explicit", 3, 1},
		{"under-unity without nil case", 0.2, 0.3},
		{"nil remainder", 0.3, nilProb},
		{"zero total", 0, 0},
	}
	for _, fx := range fixtures {
		for _, withInst := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/instantaneous=%v", fx.name, withInst), func(t *testing.T) {
				m := san.NewModel("cases")
				// live keeps its token: the probabilities read it, so
				// Validate's zero-marking probe sees a well-formed 0.5 + 0.5.
				live := m.AddPlace("live", 1)
				clock := m.AddPlace("clock", 1)
				a := m.AddPlace("a", 0)
				b := m.AddPlace("b", 0)
				prob := func(p float64) func(san.MarkingReader) float64 {
					if math.IsNaN(p) {
						return nil
					}
					return func(mr san.MarkingReader) float64 {
						if mr.Tokens(live) > 0 {
							return p
						}
						return 0.5
					}
				}
				tick := m.AddTimedActivity("tick", mustExpRate(t, rate)).AddInputArc(clock, 1)
				tick.AddCase(san.Case{Probability: prob(fx.pa), OutputArcs: []san.Arc{{Place: a, Mult: 1}}})
				tick.AddCase(san.Case{Probability: prob(fx.pb), OutputArcs: []san.Arc{{Place: b, Mult: 1}}})
				m.AddTimedActivity("reset_a", mustExpRate(t, 1)).AddInputArc(a, 1).AddOutputArc(clock, 1)
				m.AddTimedActivity("reset_b", mustExpRate(t, 1)).AddInputArc(b, 1).AddOutputArc(clock, 1)
				if withInst {
					never := m.AddPlace("never", 0)
					m.AddInstantaneousActivity("idle").AddInputArc(never, 1)
				}
				cm, err := san.Compile(m, nil)
				if err != nil {
					t.Fatal(err)
				}
				gen := mustCertify(t, statespace.Certify, cm, statespace.Options{})

				marks := markings(gen)
				post := vecReader(marks[0])
				post[clock.Index()]--
				masses := make([]float64, 2)
				total := tick.CaseMasses(post, masses)
				want := []float64{0, rate}
				if total > 0 {
					want = []float64{rate * masses[0] / total, rate * masses[1] / total}
				}
				got := make([]float64, 2)
				for _, tr := range edgesOf(gen, 0) {
					ci := 1
					if marks[tr.to][a.Index()] == 1 {
						ci = 0
					}
					// Only tick is enabled initially, and it takes the
					// clock's token.
					if marks[tr.to][clock.Index()] != 0 || got[ci] != 0 {
						t.Fatalf("unexpected edge %+v from the initial state", tr)
					}
					got[ci] = tr.rate
				}
				for ci := range want {
					if math.Abs(got[ci]-want[ci]) > 1e-15 {
						t.Errorf("case %d: edge rate %v, want %v (masses %v, total %v)", ci, got[ci], want[ci], masses, total)
					}
				}
			})
		}
	}
}

// TestRefusePanickingClosures: a panicking gate transform, case probability
// or impulse reward refuses exploration with an error naming the activity
// and the step, on both firing paths, instead of crashing.
func TestRefusePanickingClosures(t *testing.T) {
	boom := func() { panic("boom") }
	steps := []struct {
		want  string
		setup func(act *san.Activity, out *san.Place) []san.RewardVariable
	}{
		{`activity "fire": input gate transform panicked: boom`, func(act *san.Activity, out *san.Place) []san.RewardVariable {
			act.AddInputGate(&san.InputGate{Name: "ig", Transform: func(san.MarkingWriter) { boom() }})
			act.AddOutputArc(out, 1)
			return nil
		}},
		{`activity "fire": output gate transform panicked: boom`, func(act *san.Activity, out *san.Place) []san.RewardVariable {
			act.AddOutputGate(&san.OutputGate{Name: "og", Transform: func(san.MarkingWriter) { boom() }})
			return nil
		}},
		{`activity "fire": case probability panicked: boom`, func(act *san.Activity, out *san.Place) []san.RewardVariable {
			// The nil case first keeps Validate's static probe off the other.
			act.AddCase(san.Case{OutputArcs: []san.Arc{{Place: out, Mult: 2}}})
			act.AddCase(san.Case{
				Probability: func(san.MarkingReader) float64 { boom(); return 0 },
				OutputArcs:  []san.Arc{{Place: out, Mult: 1}},
			})
			return nil
		}},
		{`activity "fire": impulse reward panicked: boom`, func(act *san.Activity, out *san.Place) []san.RewardVariable {
			act.AddOutputArc(out, 1)
			return []san.RewardVariable{{Name: "imp", Mode: san.Accumulated, Impulses: map[string]san.ImpulseFunc{
				"fire": func(san.MarkingReader) float64 { boom(); return 0 },
			}}}
		}},
	}
	for _, step := range steps {
		for _, withInst := range []bool{false, true} {
			m := san.NewModel("panic")
			in := m.AddPlace("in", 1)
			out := m.AddPlace("out", 0)
			act := m.AddTimedActivity("fire", mustExpRate(t, 1)).AddInputArc(in, 1)
			rewards := step.setup(act, out)
			if withInst {
				never := m.AddPlace("never", 0)
				m.AddInstantaneousActivity("idle").AddInputArc(never, 1)
			}
			cm, err := san.Compile(m, rewards)
			if err != nil {
				t.Fatal(err)
			}
			gen, cert := statespace.Certify(cm, statespace.Options{})
			if gen != nil {
				t.Fatalf("%s (instantaneous=%v): certified", step.want, withInst)
			}
			requireRefusalPrefix(t, cert, san.RefusalExploration+": "+step.want)
		}
	}
}

// TestRefuseNonMemoryless: a uniform delay is refused with the structured
// non-memoryless reason, never silently solved.
func TestRefuseNonMemoryless(t *testing.T) {
	m := san.NewModel("u")
	up := m.AddPlace("up", 1)
	dn := m.AddPlace("down", 0)
	u, err := dist.NewUniform(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	m.AddTimedActivity("fail", mustExpRate(t, 0.01)).AddInputArc(up, 1).AddOutputArc(dn, 1)
	m.AddTimedActivity("repair", u).AddInputArc(dn, 1).AddOutputArc(up, 1)
	cm, err := san.Compile(m, []san.RewardVariable{san.TokenTimeAverage("down", dn)})
	if err != nil {
		t.Fatal(err)
	}
	gen, cert := statespace.Certify(cm, statespace.Options{})
	if gen != nil || cert.Certified() || cert.Memoryless {
		t.Fatalf("uniform delay certified: %s", cert.Summary())
	}
	requireRefusalPrefix(t, cert, san.RefusalNonMemoryless)
}

// TestRefuseVanishingLoop: an instantaneous cycle is refused before any
// exploration runs.
func TestRefuseVanishingLoop(t *testing.T) {
	m := san.NewModel("loop")
	a := m.AddPlace("a", 1)
	b := m.AddPlace("b", 0)
	m.AddInstantaneousActivity("ab").AddInputArc(a, 1).AddOutputArc(b, 1)
	m.AddInstantaneousActivity("ba").AddInputArc(b, 1).AddOutputArc(a, 1)
	sink := m.AddPlace("sink", 0)
	m.AddTimedActivity("drain", mustExpRate(t, 1)).AddInputArc(a, 1).AddOutputArc(sink, 1)
	cm, err := san.Compile(m, []san.RewardVariable{san.TokenTimeAverage("sink", sink)})
	if err != nil {
		t.Fatal(err)
	}
	gen, cert := statespace.Certify(cm, statespace.Options{})
	if gen != nil || cert.VanishingFree {
		t.Fatalf("vanishing loop certified: %s", cert.Summary())
	}
	requireRefusalPrefix(t, cert, san.RefusalVanishingLoop)
}

// TestRefuseUnbounded: a token source with no conserving invariant blows the
// state budget and is classified unbounded (not merely over budget).
func TestRefuseUnbounded(t *testing.T) {
	m := san.NewModel("src")
	q := m.AddPlace("queue", 0)
	m.AddTimedActivity("arrive", mustExpRate(t, 1)).AddOutputArc(q, 1)
	cm, err := san.Compile(m, []san.RewardVariable{san.TokenTimeAverage("queue", q)})
	if err != nil {
		t.Fatal(err)
	}
	gen, cert := statespace.Certify(cm, statespace.Options{MaxStates: 32})
	if gen != nil || cert.Bounded {
		t.Fatalf("token source certified: %s", cert.Summary())
	}
	requireRefusalPrefix(t, cert, san.RefusalUnbounded)
}

// TestRefuseUnboundedTruncatesPlaceList: with more uncovered places than
// the refusal lists, the truncation is explicit — the refusal ends with
// "... and N more" instead of silently reading as a complete list.
func TestRefuseUnboundedTruncatesPlaceList(t *testing.T) {
	m := san.NewModel("many-sources")
	const sources = 11
	rewards := make([]san.RewardVariable, 0, sources)
	for i := 0; i < sources; i++ {
		q := m.AddPlace(fmt.Sprintf("queue%02d", i), 0)
		m.AddTimedActivity(fmt.Sprintf("arrive%02d", i), mustExpRate(t, 1)).AddOutputArc(q, 1)
		rewards = append(rewards, san.TokenTimeAverage(q.Name(), q))
	}
	cm, err := san.Compile(m, rewards)
	if err != nil {
		t.Fatal(err)
	}
	gen, cert := statespace.Certify(cm, statespace.Options{MaxStates: 32})
	if gen != nil || cert.Bounded {
		t.Fatalf("token sources certified: %s", cert.Summary())
	}
	requireRefusalPrefix(t, cert, san.RefusalUnbounded)
	var refusal string
	for _, r := range cert.Refusals {
		if strings.HasPrefix(r, san.RefusalUnbounded) {
			refusal = r
		}
	}
	if !strings.Contains(refusal, "... and 3 more") {
		t.Fatalf("refusal must state the truncation (11 uncovered, 8 listed): %q", refusal)
	}
	if strings.Count(refusal, "queue") != 8 {
		t.Fatalf("refusal must list exactly 8 places: %q", refusal)
	}
}

// TestRefuseBudget: a provably finite model larger than the state budget is
// refused as a budget problem, with every place invariant-covered.
func TestRefuseBudget(t *testing.T) {
	cm := buildBirthDeath(t, 30, 0.001, 0.04)
	gen, cert := statespace.Certify(cm, statespace.Options{MaxStates: 10})
	if gen != nil || cert.Bounded {
		t.Fatalf("over-budget model certified: %s", cert.Summary())
	}
	requireRefusalPrefix(t, cert, san.RefusalBudget)
}

// TestRefuseNegativeMarking: a gate driving a place negative is an
// exploration refusal mirroring the simulator's negative-token panic.
func TestRefuseNegativeMarking(t *testing.T) {
	m := san.NewModel("neg")
	p := m.AddPlace("p", 1)
	q := m.AddPlace("q", 0)
	m.AddTimedActivity("bad", mustExpRate(t, 1)).
		AddInputArc(p, 1).
		AddOutputGate(&san.OutputGate{Name: "og", Transform: func(mw san.MarkingWriter) {
			mw.Add(q, -3)
		}})
	cm, err := san.Compile(m, []san.RewardVariable{san.TokenTimeAverage("q", q)})
	if err != nil {
		t.Fatal(err)
	}
	gen, cert := statespace.Certify(cm, statespace.Options{})
	if gen != nil || cert.Bounded {
		t.Fatalf("negative-marking model certified: %s", cert.Summary())
	}
	requireRefusalPrefix(t, cert, san.RefusalExploration)
}

func requireRefusalPrefix(t *testing.T, cert san.Certificate, prefix string) {
	t.Helper()
	for _, r := range cert.Refusals {
		if strings.HasPrefix(r, prefix) {
			return
		}
	}
	t.Fatalf("no refusal with prefix %q in %v", prefix, cert.Refusals)
}
