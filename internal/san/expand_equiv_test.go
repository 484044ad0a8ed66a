// Equivalence tests for the phase-type expansion, pinned against closed
// forms: the probability that a single expanded transition has fired by time
// T is exactly the original delay's CDF at T, so the certified solver on the
// expanded chain must reproduce dist.Gamma.CDF (Erlang) and the
// hypoexponential CDF (Sum of exponentials) to solver tolerance. An external
// test package because the solver lives downstream of san.
package san_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/san"
	"repro/internal/statespace"
)

// absorbedProbability builds pending -> activity(delay) -> done, expands the
// model, requires certification, and returns P[done at T] for each T.
func absorbedProbability(t *testing.T, delay dist.Distribution, times []float64) []float64 {
	t.Helper()
	m := san.NewModel("expand-equiv")
	pending := m.AddPlace("pending", 1)
	done := m.AddPlace("done", 0)
	m.AddTimedActivity("transfer", delay).
		AddInputArc(pending, 1).
		AddOutputArc(done, 1)
	m, rep, err := san.ExpandPhases(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Expanded) != 1 || len(rep.Refusals) != 0 {
		t.Fatalf("expected exactly one expansion, got %v / %v", rep.Expanded, rep.Refusals)
	}
	rewards := []san.RewardVariable{{
		Name: "absorbed",
		Mode: san.InstantAtEnd,
		Rate: func(mr san.MarkingReader) float64 { return float64(mr.Tokens(done)) },
	}}
	cm, err := san.Compile(m, rewards)
	if err != nil {
		t.Fatal(err)
	}
	gen, cert := statespace.Certify(cm, statespace.Options{})
	if !cert.Certified() {
		t.Fatalf("expanded model must certify, refusals: %v", cert.Refusals)
	}
	out := make([]float64, len(times))
	for i, T := range times {
		res, err := gen.SolveTransient(T)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res["absorbed"]
	}
	return out
}

// TestExpandedErlangMatchesGammaCDF pins the expanded-analytic answer for a
// single Erlang transition against dist.Gamma.CDF exactly (to solver
// tolerance).
func TestExpandedErlangMatchesGammaCDF(t *testing.T) {
	g, err := dist.NewErlang(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{0.5, 2, 6, 12, 24}
	got := absorbedProbability(t, g, times)
	for i, T := range times {
		want := g.CDF(T)
		if diff := math.Abs(got[i] - want); diff > 1e-8 {
			t.Errorf("T=%v: solver %v vs Gamma CDF %v (diff %v)", T, got[i], want, diff)
		}
	}
}

// TestExpandedSumMatchesHypoexponentialCDF pins a two-stage Sum of distinct
// exponentials against the closed-form hypoexponential CDF
// 1 - (b e^{-a t} - a e^{-b t}) / (b - a).
func TestExpandedSumMatchesHypoexponentialCDF(t *testing.T) {
	a, b := 0.7, 0.2
	ea, err := dist.NewExponentialFromRate(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := dist.NewExponentialFromRate(b)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dist.NewSum(ea, eb)
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{0.5, 2, 6, 12, 24}
	got := absorbedProbability(t, s, times)
	for i, T := range times {
		want := 1 - (b*math.Exp(-a*T)-a*math.Exp(-b*T))/(b-a)
		if diff := math.Abs(got[i] - want); diff > 1e-8 {
			t.Errorf("T=%v: solver %v vs hypoexponential CDF %v (diff %v)", T, got[i], want, diff)
		}
	}
}

// TestCertifyExpandedCarriesEvidence pins the statespace entry point: the
// certificate of an expanded model records the expansion evidence and
// summarizes as certified-after-expansion.
func TestCertifyExpandedCarriesEvidence(t *testing.T) {
	m := san.NewModel("certify-expanded")
	pending := m.AddPlace("pending", 1)
	done := m.AddPlace("done", 0)
	g, err := dist.NewErlang(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.AddTimedActivity("transfer", g).AddInputArc(pending, 1).AddOutputArc(done, 1)
	rewards := []san.RewardVariable{{
		Name: "absorbed",
		Mode: san.InstantAtEnd,
		Rate: func(mr san.MarkingReader) float64 { return float64(mr.Tokens(done)) },
	}}
	_, cert, rep, err := statespace.CertifyExpanded(m, rewards, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Certified() {
		t.Fatalf("expanded model must certify, refusals: %v", cert.Refusals)
	}
	if len(cert.Expansions) != 1 || len(rep.Expanded) != 1 {
		t.Fatalf("certificate must carry the expansion evidence, got %v / %v", cert.Expansions, rep.Expanded)
	}
	sum := cert.Summary()
	if !strings.Contains(sum, "after phase expansion of 1 activities") {
		t.Fatalf("summary must surface the expansion: %q", sum)
	}
}
