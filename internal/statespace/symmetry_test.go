package statespace_test

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/abe"
	"repro/internal/san"
	"repro/internal/statespace"
)

// farmVariant bends the replicated farm out of symmetry (or into a shared
// resource). The zero value is the symmetric farm.
type farmVariant struct {
	failRate func(i int) float64                                           // per-instance failure rate
	rewards  func(ups []*san.Place, repairs []string) []san.RewardVariable // replaces the default rewards
	crews    int                                                           // > 0: repairs claim one of crews shared tokens
	drop     func(i int) int                                               // per-instance tokens the drop gate leaves in down and the repair takes (1; not with crews)
}

// buildReplicatedFarm composes n two-state components with san.Replicate
// under "farm/comp": each fails through two cases (an output arc, or an
// output gate) and is repaired. The default rewards are the fraction of time
// every component is up and the count of repairs (an impulse reward). With
// crews > 0 a failed component waits for a shared crew token, claimed by an
// instantaneous activity, so waiting components are served in model order.
func buildReplicatedFarm(t *testing.T, n int, v farmVariant) *san.CompiledModel {
	t.Helper()
	m := san.NewModel("replicated-farm")
	var crew *san.Place
	if v.crews > 0 {
		crew = m.AddPlace("farm/crews", v.crews)
	}
	ups := make([]*san.Place, n)
	repairs := make([]string, n)
	err := san.Replicate(m, "farm/comp", n, func(m *san.Model, prefix string, i int) error {
		up := m.AddPlace(san.Qualify(prefix, "up"), 1)
		down := m.AddPlace(san.Qualify(prefix, "down"), 0)
		ups[i] = up
		rate, drop := 0.01, 1
		if v.failRate != nil {
			rate = v.failRate(i)
		}
		if v.drop != nil {
			drop = v.drop(i)
		}
		fail := m.AddTimedActivity(san.Qualify(prefix, "fail"), mustExpRate(t, rate))
		fail.AddInputArc(up, 1)
		fail.AddCase(san.Case{
			Probability: func(san.MarkingReader) float64 { return 0.7 },
			OutputArcs:  []san.Arc{{Place: down, Mult: 1}},
		})
		fail.AddCase(san.Case{
			Probability: func(san.MarkingReader) float64 { return 0.3 },
			OutputGates: []*san.OutputGate{{
				Name:      san.Qualify(prefix, "drop"),
				Transform: func(mw san.MarkingWriter) { mw.SetTokens(down, drop) },
			}},
		})
		from := down
		if crew != nil {
			from = m.AddPlace(san.Qualify(prefix, "repairing"), 0)
			m.AddInstantaneousActivity(san.Qualify(prefix, "claim")).
				AddInputArc(down, 1).
				AddInputArc(crew, 1).
				AddOutputArc(from, 1)
		}
		repairs[i] = san.Qualify(prefix, "repair")
		repair := m.AddTimedActivity(repairs[i], mustExpRate(t, 0.2))
		repair.AddInputArc(from, drop)
		repair.AddOutputArc(up, 1)
		if crew != nil {
			repair.AddOutputArc(crew, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rewards := []san.RewardVariable{
		san.UpFraction("all_up", func(mr san.MarkingReader) bool {
			for _, up := range ups {
				if mr.Tokens(up) == 0 {
					return false
				}
			}
			return true
		}),
		san.CompletionCount("repairs", repairs...),
	}
	if v.rewards != nil {
		rewards = v.rewards(ups, repairs)
	}
	cm, err := san.Compile(m, rewards)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// vecReader reads a marking vector.
type vecReader []int

func (v vecReader) Tokens(p *san.Place) int { return v[p.Index()] }

// markKey encodes a marking as a map key.
func markKey(mark []int) string {
	b := make([]byte, 0, 8*len(mark))
	for _, v := range mark {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
	}
	return string(b)
}

// sameQuotient asserts that q is flat lumped by the explorer's partition,
// bit for bit: every class representative is canonical, every flat state
// falls into a class and every class holds a flat state, every flat state's
// edges mapped to classes are the multiset of its class's quotient edges
// (target, rate and impulse bits), every flat state has its class's reward
// rates, and the initial distributions agree class by class.
func sameQuotient(t *testing.T, cm *san.CompiledModel, q, flat *statespace.Generator) {
	t.Helper()
	canon := statespace.Canonicalizer(cm)
	qMarks, flatMarks := markings(q), markings(flat)
	classOf := make(map[string]int, len(q.States))
	for ci, rep := range qMarks {
		if !slices.Equal(canon(rep), rep) {
			t.Fatalf("class %d: representative %v is not canonical", ci, rep)
		}
		classOf[markKey(rep)] = ci
	}
	flatClass := make([]int, len(flat.States))
	covered := make([]bool, len(q.States))
	for s, mark := range flatMarks {
		ci, ok := classOf[markKey(canon(mark))]
		if !ok {
			t.Fatalf("flat state %d %v: class missing from the quotient", s, mark)
		}
		flatClass[s] = ci
		covered[ci] = true
	}
	for ci, ok := range covered {
		if !ok {
			t.Fatalf("class %d %v holds no flat state", ci, qMarks[ci])
		}
	}

	nRewards := len(cm.Rewards())
	// edgeSet encodes each edge as (class, rate bits, impulse bits), a nil
	// impulse vector as zeros, and sorts the encodings: a multiset.
	edgeSet := func(ts []testEdge, class func(int) int) []string {
		out := make([]string, 0, len(ts))
		var b []byte
		for _, tr := range ts {
			b = binary.LittleEndian.AppendUint64(b[:0], uint64(class(tr.to)))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(tr.rate))
			for ri := 0; ri < nRewards; ri++ {
				var bits uint64
				if ri < len(tr.impulses) {
					bits = math.Float64bits(tr.impulses[ri])
				}
				b = binary.LittleEndian.AppendUint64(b, bits)
			}
			out = append(out, string(b))
		}
		slices.Sort(out)
		return out
	}
	same := func(i int) int { return i }
	quotientEdges := make([][]string, len(q.States))
	for ci := range q.States {
		quotientEdges[ci] = edgeSet(edgesOf(q, ci), same)
	}
	for s := range flat.States {
		ci := flatClass[s]
		got := edgeSet(edgesOf(flat, s), func(to int) int { return flatClass[to] })
		if !slices.Equal(got, quotientEdges[ci]) {
			t.Fatalf("flat state %d (class %d): lumped edges\n%x\nwant\n%x", s, ci, got, quotientEdges[ci])
		}
		for _, rv := range cm.Rewards() {
			if rv.Rate == nil {
				continue
			}
			if a, b := rv.Rate(vecReader(flatMarks[s])), rv.Rate(vecReader(qMarks[ci])); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("flat state %d: reward %q rate %v, class %d rate %v", s, rv.Name, a, ci, b)
			}
		}
	}

	lumped := make(map[int]float64)
	for _, sp := range flat.Initial {
		lumped[flatClass[sp.State]] += sp.Prob
	}
	if len(lumped) != len(q.Initial) {
		t.Fatalf("initial classes: flat lumps to %v, quotient has %v", lumped, q.Initial)
	}
	for _, sp := range q.Initial {
		if p := lumped[sp.State]; math.Float64bits(p) != math.Float64bits(sp.Prob) {
			t.Fatalf("initial class %d: flat lumps to %v, quotient has %v", sp.State, p, sp.Prob)
		}
	}
	if !slices.Equal(q.InitialImpulses, flat.InitialImpulses) {
		t.Fatalf("initial impulses: %v vs flat %v", q.InitialImpulses, flat.InitialImpulses)
	}
}

// sameAnswers asserts two reward maps agree within tol relative.
func sameAnswers(t *testing.T, got, want map[string]float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rewards, want %d", len(got), len(want))
	}
	for name, w := range want {
		if diff := math.Abs(got[name] - w); diff > tol*math.Abs(w) {
			t.Errorf("reward %q: %v vs flat %v (diff %g)", name, got[name], w, diff)
		}
	}
}

// TestQuotientFarm collapses the symmetric replicated farm: 256 flat states
// become the 9 classes "k components down", certified with the evidence of
// the group and the flat states checked, with the flat place bounds and
// invariants, and the flat answers.
func TestQuotientFarm(t *testing.T) {
	cm := buildReplicatedFarm(t, 8, farmVariant{})
	gen, cert := statespace.Certify(cm, statespace.Options{})
	if !cert.Certified() {
		t.Fatalf("refused: %s", cert.Summary())
	}
	ref, refCert := statespace.CertifyReference(cm, statespace.Options{})
	if len(ref.States) != 256 || len(gen.States) != 9 || cert.States != 9 {
		t.Fatalf("states: quotient %d (certificate %d), flat %d; want 9 and 256", len(gen.States), cert.States, len(ref.States))
	}
	want := &san.SymmetryEvidence{Groups: []string{"farm/comp"}, FlatStates: 256}
	if !reflect.DeepEqual(cert.Symmetry, want) {
		t.Fatalf("symmetry evidence %+v, want %+v", cert.Symmetry, want)
	}
	if !reflect.DeepEqual(cert.PlaceBounds, refCert.PlaceBounds) ||
		cert.PInvariants != refCert.PInvariants || cert.TInvariants != refCert.TInvariants {
		t.Fatalf("bounds or invariants moved:\n%+v\nflat %+v", cert, refCert)
	}
	sameQuotient(t, cm, gen, ref)
	got, err := gen.SolveTransient(2000)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := ref.SolveTransientReference(2000)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, got, flat, 1e-9)
}

// TestQuotientFallsBackOnAsymmetry builds four farms that look exchangeable
// by structure but are not by behavior. Each must fail the member check and
// certify the flat chain, with the certificate of the flat reference
// explorer byte for byte. In the index-dependent successor farm instance 0
// can hold two tokens in its down place, so a member reaches a class its
// representative does not, and the check fails on a member successor that
// is not an interned class.
func TestQuotientFallsBackOnAsymmetry(t *testing.T) {
	allUp := func(ups []*san.Place) san.RewardVariable {
		return san.UpFraction("all_up", func(mr san.MarkingReader) bool {
			for _, up := range ups {
				if mr.Tokens(up) == 0 {
					return false
				}
			}
			return true
		})
	}
	variants := map[string]farmVariant{
		"index-dependent rate": {failRate: func(i int) float64 {
			if i == 0 {
				return 0.02
			}
			return 0.01
		}},
		"reward reads instance 0": {rewards: func(ups []*san.Place, repairs []string) []san.RewardVariable {
			return []san.RewardVariable{
				san.UpFraction("first_up", func(mr san.MarkingReader) bool { return mr.Tokens(ups[0]) > 0 }),
				san.CompletionCount("repairs", repairs...),
			}
		}},
		"index-dependent impulse": {rewards: func(ups []*san.Place, repairs []string) []san.RewardVariable {
			return []san.RewardVariable{allUp(ups), san.CompletionCount("repairs0", repairs[0])}
		}},
		"index-dependent successor": {drop: func(i int) int {
			if i == 0 {
				return 2
			}
			return 1
		}},
	}
	for name, v := range variants {
		t.Run(name, func(t *testing.T) {
			cm := buildReplicatedFarm(t, 4, v)
			fast, fastCert := statespace.Certify(cm, statespace.Options{})
			ref, refCert := statespace.CertifyReference(cm, statespace.Options{})
			if !fastCert.Certified() || fastCert.Symmetry != nil {
				t.Fatalf("want the flat chain certified, got %s", fastCert.Summary())
			}
			got, _ := json.Marshal(fastCert)
			want, _ := json.Marshal(refCert)
			if string(got) != string(want) {
				t.Fatalf("certificate differs from the flat one:\n%s\n%s", got, want)
			}
			sameChain(t, fast, ref)
		})
	}
}

// TestQuotientSharedCrew runs the member check on a farm whose repairs
// queue for one shared crew, served in model order. Whichever way the check
// decides, the certified chain must answer as the flat reference does, and
// a quotient must have checked exactly the flat states.
func TestQuotientSharedCrew(t *testing.T) {
	cm := buildReplicatedFarm(t, 4, farmVariant{crews: 1})
	gen, cert := statespace.Certify(cm, statespace.Options{})
	ref, refCert := statespace.CertifyReference(cm, statespace.Options{})
	if !cert.Certified() || !refCert.Certified() {
		t.Fatalf("refused: %s / %s", cert.Summary(), refCert.Summary())
	}
	if cert.Symmetry != nil {
		t.Logf("quotient: %d classes for %d flat states", len(gen.States), len(ref.States))
		if cert.Symmetry.FlatStates != len(ref.States) || !reflect.DeepEqual(cert.PlaceBounds, refCert.PlaceBounds) {
			t.Fatalf("quotient checked %d flat states (flat has %d) or moved a place bound", cert.Symmetry.FlatStates, len(ref.States))
		}
		sameQuotient(t, cm, gen, ref)
	} else {
		t.Log("member check failed: flat chain")
		sameChain(t, gen, ref)
	}
	got, err := gen.SolveTransient(2000)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := ref.SolveTransientReference(2000)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, got, flat, 1e-9)
}

// TestQuotientMiniWeibull checks the shipped quotient: MiniWeibull after
// fitting collapses its three exchangeable disks, checking exactly the flat
// reference's states and keeping its place bounds, and the two chains
// answer within 1e-9 relative over a 500 h mission.
// (TestExploreFastMatchesBaseline holds the quotient to the reference chain
// lumped class for class.)
func TestQuotientMiniWeibull(t *testing.T) {
	cm := buildMini(t, abe.MiniWeibull(), true, figure4FitTolerance)
	gen, cert := statespace.Certify(cm, statespace.Options{})
	if !cert.Certified() || cert.Symmetry == nil {
		t.Fatalf("want a certified quotient, got %s", cert.Summary())
	}
	ref, refCert := statespace.CertifyReference(cm, statespace.Options{})
	if cert.Symmetry.FlatStates != len(ref.States) || len(ref.States) != 27648 || len(gen.States) != 8640 {
		t.Fatalf("quotient %d classes over %d checked flat states; flat has %d", len(gen.States), cert.Symmetry.FlatStates, len(ref.States))
	}
	if !reflect.DeepEqual(cert.PlaceBounds, refCert.PlaceBounds) {
		t.Fatal("place bounds moved")
	}
	got, err := gen.SolveTransient(500)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := ref.SolveTransient(500)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, got, flat, 1e-9)
}

// TestQuotientBudgetIsFlat checks that a quotient over budget falls back to
// the flat exploration, whose refusal it reports, at a budget between the
// class count and the flat count and at one below both.
func TestQuotientBudgetIsFlat(t *testing.T) {
	cm := buildReplicatedFarm(t, 8, farmVariant{})
	for _, budget := range []int{5, 100, 256} {
		opts := statespace.Options{MaxStates: budget}
		_, cert := statespace.Certify(cm, opts)
		_, refCert := statespace.CertifyReference(cm, opts)
		got, _ := json.Marshal(cert)
		want, _ := json.Marshal(refCert)
		if budget < 256 && string(got) != string(want) {
			t.Fatalf("budget %d: certificate %s, flat %s", budget, got, want)
		}
		if budget == 256 && (cert.Symmetry == nil || cert.Symmetry.FlatStates != 256) {
			t.Fatalf("budget 256: want the quotient of exactly the budget, got %s", cert.Summary())
		}
	}
}

// TestInitialOutcomesMergePerState splits one token by a two-case
// instantaneous activity (0.4/0.6) into the same place: both closure
// outcomes are one tangible state, which must hold the whole initial mass in
// both explorers and both solvers, as it does in simulation.
func TestInitialOutcomesMergePerState(t *testing.T) {
	m := san.NewModel("split")
	src := m.AddPlace("src", 1)
	dst := m.AddPlace("dst", 0)
	split := m.AddInstantaneousActivity("split")
	split.AddInputArc(src, 1)
	split.AddCase(san.Case{
		Probability: func(san.MarkingReader) float64 { return 0.4 },
		OutputArcs:  []san.Arc{{Place: dst, Mult: 1}},
	})
	split.AddCase(san.Case{
		Probability: func(san.MarkingReader) float64 { return 0.6 },
		OutputArcs:  []san.Arc{{Place: dst, Mult: 1}},
	})
	rewards := []san.RewardVariable{san.UpFraction("up", func(san.MarkingReader) bool { return true })}
	cm, err := san.Compile(m, rewards)
	if err != nil {
		t.Fatal(err)
	}
	for _, certify := range []func(*san.CompiledModel, statespace.Options) (*statespace.Generator, san.Certificate){
		statespace.Certify, statespace.CertifyReference,
	} {
		gen := mustCertify(t, certify, cm, statespace.Options{})
		if want := []statespace.StateProb{{State: 0, Prob: 1}}; !reflect.DeepEqual(gen.Initial, want) {
			t.Fatalf("initial distribution %v, want %v", gen.Initial, want)
		}
		for _, solve := range []func(float64) (map[string]float64, error){gen.SolveTransient, gen.SolveTransientReference} {
			got, err := solve(100)
			if err != nil {
				t.Fatal(err)
			}
			if got["up"] != 1 {
				t.Fatalf("up fraction %v, want 1", got["up"])
			}
		}
	}
	sim, err := san.RunStudies([]san.Study{{Model: cm, Options: san.Options{Mission: 100, Replications: 200, Parallelism: 2}}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mean := sim[0].Summaries["up"].Mean(); mean != 1 {
		t.Fatalf("simulated up fraction %v, want 1", mean)
	}
}
