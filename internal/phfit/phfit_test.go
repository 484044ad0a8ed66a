package phfit

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
)

// surrogateRawMoments computes the surrogate's first three raw moments in
// closed form, for checking the constructions against their targets.
func surrogateRawMoments(s Surrogate) (m1, m2, m3 float64) {
	if s.Mixture() {
		r := s.Rates()
		p := s.BranchProbability()
		m1 = p/r[0] + (1-p)/r[1]
		m2 = 2 * (p/(r[0]*r[0]) + (1-p)/(r[1]*r[1]))
		m3 = 6 * (p/(r[0]*r[0]*r[0]) + (1-p)/(r[1]*r[1]*r[1]))
		return
	}
	// Sum of independent exponentials: cumulants add.
	var mean, variance, kappa3 float64
	for _, r := range s.Rates() {
		mean += 1 / r
		variance += 1 / (r * r)
		kappa3 += 2 / (r * r * r)
	}
	m1 = mean
	m2 = variance + mean*mean
	m3 = kappa3 + 3*mean*variance + mean*mean*mean
	return
}

// bruteForceSup scans a dense grid for the largest observed |F - G|; the
// certified bound must dominate it.
func bruteForceSup(t *testing.T, target cdfQuantiler, s Surrogate) float64 {
	t.Helper()
	hi := math.Max(target.Quantile(0.99999), s.Quantile(0.99999))
	if math.IsInf(hi, 1) || hi <= 0 {
		t.Fatalf("unusable scan bound %v", hi)
	}
	sup := 0.0
	const n = 20000
	for i := 0; i <= n; i++ {
		x := hi * float64(i) / n
		if d := math.Abs(target.CDF(x) - s.CDF(x)); d > sup {
			sup = d
		}
	}
	return sup
}

func TestFitFamiliesMatchMomentsAndCertifyBounds(t *testing.T) {
	mustDist := func(d dist.Distribution, err error) dist.Distribution {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cases := []struct {
		name        string
		d           dist.Distribution
		tol         float64
		family      string
		wantMoments int
	}{
		{"weibull-wearout", mustDist(asDist(dist.NewWeibull(1.5, 1000))), 0.2, "hypoexponential", 2},
		{"uniform-window", mustDist(asDist(dist.NewUniform(12, 36))), 0.2, "erlang", 2},
		{"lognormal-heavy", mustDist(asDist(dist.NewLognormal(1.2, 1.0))), 0.25, "hyperexponential", 3},
		{"empirical", mustDist(asDist(dist.NewEmpirical([]float64{1, 2, 2, 3, 4, 4, 5, 8, 13, 21}))), 0.3, "", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Fit(tc.d, tc.tol)
			if err != nil {
				t.Fatalf("Fit(%s, %v): %v", dist.Describe(tc.d), tc.tol, err)
			}
			if res.Metric != MetricKolmogorov {
				t.Fatalf("metric = %q, want %q", res.Metric, MetricKolmogorov)
			}
			if res.Bound > tc.tol || res.Bound <= 0 {
				t.Fatalf("bound = %v, want in (0, %v]", res.Bound, tc.tol)
			}
			if tc.family != "" && res.Surrogate.Family() != tc.family {
				t.Fatalf("family = %q, want %q", res.Surrogate.Family(), tc.family)
			}
			if tc.wantMoments != 0 && res.MomentsMatched != tc.wantMoments {
				t.Fatalf("moments matched = %d, want %d", res.MomentsMatched, tc.wantMoments)
			}
			m1, m2, m3 := surrogateRawMoments(res.Surrogate)
			targets := []float64{res.TargetMoments[0], res.TargetMoments[1], res.TargetMoments[2]}
			got := []float64{m1, m2, m3}
			for i := 0; i < res.MomentsMatched; i++ {
				if rel := math.Abs(got[i]-targets[i]) / targets[i]; rel > 1e-9 {
					t.Errorf("raw moment %d: surrogate %v vs target %v (rel err %v)", i+1, got[i], targets[i], rel)
				}
			}
			if res.Surrogate.Phases() > MaxPhases {
				t.Errorf("surrogate uses %d phases, over the %d budget", res.Surrogate.Phases(), MaxPhases)
			}
			sup := bruteForceSup(t, tc.d.(cdfQuantiler), res.Surrogate)
			if sup > res.Bound+1e-9 {
				t.Errorf("observed sup distance %v exceeds certified bound %v", sup, res.Bound)
			}
		})
	}
}

func asDist[T dist.Distribution](d T, err error) (dist.Distribution, error) { return d, err }

func TestFitDeterministicUsesLevyMetric(t *testing.T) {
	d, err := dist.NewDeterministic(48)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(d, 0.15)
	if err != nil {
		t.Fatalf("Fit(deterministic(48), 0.15): %v", err)
	}
	if res.Metric != MetricLevy {
		t.Fatalf("metric = %q, want %q", res.Metric, MetricLevy)
	}
	if res.Surrogate.Family() != "erlang" {
		t.Fatalf("family = %q, want erlang", res.Surrogate.Family())
	}
	if res.Surrogate.Phases() > MaxPhases {
		t.Fatalf("order %d over budget", res.Surrogate.Phases())
	}
	if mean := res.Surrogate.Mean(); math.Abs(mean-48)/48 > 1e-12 {
		t.Fatalf("surrogate mean = %v, want 48", mean)
	}
	// Re-check the certified predicate directly: the bound eps must satisfy
	// F(d(1-eps)) <= eps and 1-F(d(1+eps)) <= eps.
	eps := res.Bound
	if got := res.Surrogate.CDF(48 * (1 - eps)); got > eps {
		t.Errorf("CDF(d(1-eps)) = %v > eps %v", got, eps)
	}
	if got := 1 - res.Surrogate.CDF(48*(1+eps)); got > eps {
		t.Errorf("1-CDF(d(1+eps)) = %v > eps %v", got, eps)
	}

	if _, err := Fit(d, 0.01); !errors.Is(err, ErrNonFittable) {
		t.Fatalf("Fit(deterministic, 0.01) = %v, want ErrNonFittable", err)
	}
}

func TestFitRefusals(t *testing.T) {
	// A mixture exposes no closed-form third moment.
	e1, err := dist.NewExponentialFromMean(1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := dist.NewExponentialFromMean(10)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := dist.NewMixture(dist.Component{Weight: 1, Dist: e1}, dist.Component{Weight: 1, Dist: e2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fit(mix, 0.2); !errors.Is(err, ErrNonFittable) {
		t.Fatalf("Fit(mixture) = %v, want ErrNonFittable", err)
	}

	// A nearly deterministic window needs more phases than the budget.
	narrow, err := dist.NewUniform(99, 101)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fit(narrow, 0.2); !errors.Is(err, ErrNonFittable) {
		t.Fatalf("Fit(narrow uniform) = %v, want ErrNonFittable", err)
	}

	// An unachievable tolerance refuses with the achievable bound.
	wide, err := dist.NewUniform(12, 36)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fit(wide, 0.001); !errors.Is(err, ErrNonFittable) {
		t.Fatalf("Fit(uniform, 0.001) = %v, want ErrNonFittable", err)
	}

	// Unusable tolerances are plain errors, not classified refusals.
	if _, err := Fit(wide, 0); err == nil || errors.Is(err, ErrNonFittable) {
		t.Fatalf("Fit(tol=0) = %v, want plain error", err)
	}
	if _, err := Fit(wide, 1); err == nil || errors.Is(err, ErrNonFittable) {
		t.Fatalf("Fit(tol=1) = %v, want plain error", err)
	}
}

// TestSurrogateCDFAgainstSampling pins the closed-form surrogate CDFs
// (including the log-space hypoexponential branch) against seeded sampling
// of the same phase structure.
func TestSurrogateCDFAgainstSampling(t *testing.T) {
	w, err := dist.NewWeibull(1.5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := dist.NewLognormal(1.2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		d    dist.Distribution
		tol  float64
	}{
		{"chain", w, 0.2},
		{"mixture", ln, 0.25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Fit(tc.d, tc.tol)
			if err != nil {
				t.Fatal(err)
			}
			s := rng.NewStream(7, "phfit-test-"+tc.name)
			const n = 200000
			samples := make([]float64, n)
			for i := range samples {
				samples[i] = sampleSurrogate(res.Surrogate, s)
			}
			// Compare the empirical CDF to the closed form at the deciles.
			for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
				x := res.Surrogate.Quantile(p)
				count := 0
				for _, v := range samples {
					if v <= x {
						count++
					}
				}
				emp := float64(count) / n
				if math.Abs(emp-p) > 0.005 {
					t.Errorf("CDF mismatch at p=%v: empirical %v at closed-form quantile %v", p, emp, x)
				}
			}
		})
	}
}

// sampleSurrogate draws one value from the surrogate's phase structure.
func sampleSurrogate(s Surrogate, stream *rng.Stream) float64 {
	if s.Mixture() {
		r := s.Rates()
		rate := r[1]
		if stream.Float64() < s.BranchProbability() {
			rate = r[0]
		}
		return -math.Log(stream.OpenFloat64()) / rate
	}
	total := 0.0
	for _, r := range s.Rates() {
		total += -math.Log(stream.OpenFloat64()) / r
	}
	return total
}

// TestErlangChainCDFMatchesGamma pins the equal-rate chain CDF against
// dist's Erlang CDF. Both evaluate dist.RegularizedGammaP, so this checks the
// chain's shape and rate mapping.
func TestErlangChainCDFMatchesGamma(t *testing.T) {
	g, err := dist.NewErlang(12, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s := Surrogate{k: 12, rate1: 0.5, rate2: 0.5}
	for _, x := range []float64{1, 5, 10, 24, 30, 50, 100} {
		if got, want := s.CDF(x), g.CDF(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("CDF(%v) = %v, want %v", x, got, want)
		}
	}
}
