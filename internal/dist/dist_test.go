package dist

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

// sampleMoments draws n values from d on a seeded stream and returns the
// sample mean and variance.
func sampleMoments(t *testing.T, d Distribution, n int, seed uint64) (mean, variance float64) {
	t.Helper()
	s := rng.NewStream(seed, "dist-test")
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := d.Sample(s)
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("%s: sample %d = %v", Describe(d), i, v)
		}
		sum += v
		sumSq += v * v
	}
	mean = sum / float64(n)
	variance = sumSq/float64(n) - mean*mean
	return mean, variance
}

// varier is the optional analytic-variance interface the families implement.
type varier interface {
	Variance() float64
}

// TestSeededMoments validates every sampler against its analytic mean (2%
// relative tolerance) and variance (5%) on a fixed seed.
func TestSeededMoments(t *testing.T) {
	mustDist := func(d Distribution, err error) Distribution {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	empValues := []float64{1, 2, 2, 3, 4, 4, 5, 8, 13, 21}
	emp := mustDist(asDist(NewEmpirical(empValues)))
	cases := []struct {
		name string
		d    Distribution
	}{
		{"exponential", mustDist(asDist(NewExponentialFromMean(120)))},
		{"exponential-rate", mustDist(asDist(NewExponentialFromRate(0.25)))},
		{"weibull-infant", mustDist(asDist(NewWeibull(0.71, 1000)))},
		{"weibull-wearout", mustDist(asDist(NewWeibull(1.5, 500)))},
		{"weibull-mtbf", mustDist(asDist(NewWeibullFromMTBF(0.8, 250000)))},
		{"lognormal", mustDist(asDist(NewLognormal(1.2, 0.5)))},
		{"lognormal-moments", mustDist(asDist(NewLognormalFromMoments(6, 8)))},
		{"uniform", mustDist(asDist(NewUniform(12, 36)))},
		{"deterministic", mustDist(asDist(NewDeterministic(17)))},
		{"gamma-heavy", mustDist(asDist(NewGamma(0.5, 40)))},
		{"gamma", mustDist(asDist(NewGamma(2.5, 40)))},
		{"erlang", mustDist(asDist(NewErlang(3, 0.05)))},
		{"mixture", mustDist(asDist(NewMixture(
			Component{Weight: 3, Dist: mustDist(asDist(NewExponentialFromMean(4)))},
			Component{Weight: 1, Dist: mustDist(asDist(NewUniform(48, 96)))},
		)))},
		{"empirical", emp},
	}
	const n = 400000
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mean, variance := sampleMoments(t, tc.d, n, 1000+uint64(i))
			wantMean := tc.d.Mean()
			if relErr(mean, wantMean) > 0.02 {
				t.Errorf("%s: sample mean %v, analytic %v", Describe(tc.d), mean, wantMean)
			}
			v, ok := tc.d.(varier)
			if !ok {
				return
			}
			wantVar := v.Variance()
			if wantVar == 0 {
				if variance != 0 {
					t.Errorf("%s: sample variance %v, want 0", Describe(tc.d), variance)
				}
				return
			}
			if relErr(variance, wantVar) > 0.05 {
				t.Errorf("%s: sample variance %v, analytic %v", Describe(tc.d), variance, wantVar)
			}
		})
	}
}

// asDist adapts a concrete (T, error) constructor result to (Distribution,
// error) so the table above can share one must-helper.
func asDist[T Distribution](d T, err error) (Distribution, error) { return d, err }

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want)
}

// TestSamplingIsDeterministic checks that equal seeds give identical
// sequences — the property common random numbers depend on.
func TestSamplingIsDeterministic(t *testing.T) {
	w, err := NewWeibull(1.5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	a := rng.NewStream(7, "a")
	b := rng.NewStream(7, "b")
	for i := 0; i < 1000; i++ {
		if va, vb := w.Sample(a), w.Sample(b); va != vb {
			t.Fatalf("draw %d diverged: %v vs %v", i, va, vb)
		}
	}
}

// quantileFamily pairs a distribution with both optional interfaces for the
// round-trip test.
type quantileFamily interface {
	Distribution
	Quantiler
	CDFer
}

// TestQuantileRoundTrip checks CDF(Quantile(p)) == p across the families
// with continuous, strictly increasing CDFs, and that quantiles are
// monotone.
func TestQuantileRoundTrip(t *testing.T) {
	mustQ := func(d Distribution, err error) quantileFamily {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		q, ok := d.(quantileFamily)
		if !ok {
			t.Fatalf("%T does not implement Quantiler+CDFer", d)
		}
		return q
	}
	emp := mustQ(asDist(NewEmpirical([]float64{2, 5, 7.5, 11, 20, 42})))
	families := []quantileFamily{
		mustQ(asDist(NewExponentialFromMean(100))),
		mustQ(asDist(NewWeibull(0.71, 1000))),
		mustQ(asDist(NewWeibull(2, 300))),
		mustQ(asDist(NewLognormalFromMoments(6, 8))),
		mustQ(asDist(NewUniform(12, 36))),
		mustQ(asDist(NewGamma(0.5, 10))),
		mustQ(asDist(NewGamma(4, 25))),
		mustQ(asDist(NewMixture(
			Component{Weight: 1, Dist: mustQ(asDist(NewExponentialFromMean(5)))},
			Component{Weight: 1, Dist: mustQ(asDist(NewLognormalFromMoments(40, 10)))},
		))),
		emp,
	}
	ps := []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}
	for _, d := range families {
		prev := math.Inf(-1)
		for _, p := range ps {
			x := d.Quantile(p)
			if math.IsNaN(x) {
				t.Errorf("%s: Quantile(%v) = NaN", Describe(d), p)
				continue
			}
			if x < prev {
				t.Errorf("%s: quantile not monotone at p=%v: %v < %v", Describe(d), p, x, prev)
			}
			prev = x
			if got := d.CDF(x); math.Abs(got-p) > 1e-6 {
				t.Errorf("%s: CDF(Quantile(%v)) = %v", Describe(d), p, got)
			}
		}
		for _, p := range []float64{-0.1, 1.1, math.NaN()} {
			if x := d.Quantile(p); !math.IsNaN(x) {
				t.Errorf("%s: Quantile(%v) = %v, want NaN", Describe(d), p, x)
			}
		}
	}
}

// TestDeterministicQuantile covers the step-CDF family excluded from the
// continuous round trip.
func TestDeterministicQuantile(t *testing.T) {
	d, err := NewDeterministic(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Quantile(0.3); got != 5 {
		t.Errorf("Quantile(0.3) = %v", got)
	}
	if got := d.CDF(4.999); got != 0 {
		t.Errorf("CDF(4.999) = %v", got)
	}
	if got := d.CDF(5); got != 1 {
		t.Errorf("CDF(5) = %v", got)
	}
	if got := d.Sample(nil); got != 5 {
		t.Errorf("Sample = %v", got)
	}
}

// TestGammaCDFMatchesExponential pins the incomplete-gamma evaluation to the
// closed form it must reduce to at shape 1.
func TestGammaCDFMatchesExponential(t *testing.T) {
	g, err := NewGamma(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExponentialFromMean(50)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.1, 1, 10, 50, 100, 400, 1000} {
		if got, want := g.CDF(x), e.CDF(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("CDF(%v) = %v, want %v", x, got, want)
		}
	}
}

// TestErlangIsGammaWithIntegerShape checks the Erlang constructor maps
// (k, rate) onto the gamma parameterization.
func TestErlangIsGammaWithIntegerShape(t *testing.T) {
	g, err := NewErlang(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Shape() != 4 || g.Scale() != 2 {
		t.Errorf("Erlang(4, 0.5) = shape %v scale %v", g.Shape(), g.Scale())
	}
	if got := g.Mean(); got != 8 {
		t.Errorf("mean = %v", got)
	}
}

// TestWeibullFromMTBFMatchesMean checks the derived scale reproduces the
// requested MTBF for infant-mortality, exponential, and wear-out shapes.
func TestWeibullFromMTBFMatchesMean(t *testing.T) {
	for _, shape := range []float64{0.5, 0.71, 1.0, 1.5, 3.0} {
		w, err := NewWeibullFromMTBF(shape, 250000)
		if err != nil {
			t.Fatal(err)
		}
		if relErr(w.Mean(), 250000) > 1e-12 {
			t.Errorf("shape %v: mean %v, want 250000", shape, w.Mean())
		}
	}
}

// TestAFRToMTBFHours checks the round trip with the AFR = HoursPerYear/MTBF
// convention the RAID configuration uses.
func TestAFRToMTBFHours(t *testing.T) {
	mtbf, err := AFRToMTBFHours(HoursPerYear / 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(mtbf, 1e6) > 1e-12 {
		t.Errorf("MTBF = %v, want 1e6", mtbf)
	}
	for _, afr := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := AFRToMTBFHours(afr); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("AFRToMTBFHours(%v) error = %v, want ErrInvalidParam", afr, err)
		}
	}
}

// TestInvalidParameters exercises every constructor's rejection paths.
func TestInvalidParameters(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	okExp, err := NewExponentialFromMean(1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		err  error
	}{
		{"exp mean 0", errOf(asDist(NewExponentialFromMean(0)))},
		{"exp mean neg", errOf(asDist(NewExponentialFromMean(-3)))},
		{"exp mean nan", errOf(asDist(NewExponentialFromMean(nan)))},
		{"exp mean inf", errOf(asDist(NewExponentialFromMean(inf)))},
		{"exp rate 0", errOf(asDist(NewExponentialFromRate(0)))},
		{"weibull shape 0", errOf(asDist(NewWeibull(0, 1)))},
		{"weibull scale neg", errOf(asDist(NewWeibull(1, -1)))},
		{"weibull mtbf nan", errOf(asDist(NewWeibullFromMTBF(1, nan)))},
		{"lognormal sigma 0", errOf(asDist(NewLognormal(0, 0)))},
		{"lognormal mu inf", errOf(asDist(NewLognormal(inf, 1)))},
		{"lognormal mean neg", errOf(asDist(NewLognormalFromMoments(-6, 8)))},
		{"lognormal sd 0", errOf(asDist(NewLognormalFromMoments(6, 0)))},
		{"uniform inverted", errOf(asDist(NewUniform(36, 12)))},
		{"uniform empty", errOf(asDist(NewUniform(5, 5)))},
		{"uniform nan", errOf(asDist(NewUniform(nan, 12)))},
		{"deterministic neg", errOf(asDist(NewDeterministic(-1)))},
		{"deterministic inf", errOf(asDist(NewDeterministic(inf)))},
		{"gamma shape 0", errOf(asDist(NewGamma(0, 1)))},
		{"gamma scale nan", errOf(asDist(NewGamma(1, nan)))},
		{"erlang k 0", errOf(asDist(NewErlang(0, 1)))},
		{"erlang rate neg", errOf(asDist(NewErlang(2, -1)))},
		{"mixture empty", errOf(asDist(NewMixture()))},
		{"mixture nil dist", errOf(asDist(NewMixture(Component{Weight: 1})))},
		{"mixture weight 0", errOf(asDist(NewMixture(Component{Weight: 0, Dist: okExp})))},
		{"empirical empty", errOf(asDist(NewEmpirical(nil)))},
		{"empirical nan", errOf(asDist(NewEmpirical([]float64{1, nan})))},
		{"empirical neg", errOf(asDist(NewEmpirical([]float64{1, -2})))},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, ErrInvalidParam) {
			t.Errorf("%s: error = %v, want ErrInvalidParam", tc.name, tc.err)
		}
	}
}

func errOf(_ Distribution, err error) error { return err }

// TestEmpiricalQuantiles pins the type-7 interpolation to hand-computed
// values.
func TestEmpiricalQuantiles(t *testing.T) {
	e, err := NewEmpirical([]float64{4, 1, 3, 2, 5}) // sorted: 1 2 3 4 5
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.625, 3.5}, {1, 5},
	} {
		if got := e.Quantile(tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := e.Mean(); math.Abs(got-3) > 1e-12 {
		t.Errorf("Mean = %v, want 3", got)
	}
	single, err := NewEmpirical([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if got := single.Quantile(0.5); got != 7 {
		t.Errorf("single-point Quantile = %v", got)
	}
	if got := single.CDF(7); got != 1 {
		t.Errorf("single-point CDF(7) = %v", got)
	}
	if got := single.CDF(6.9); got != 0 {
		t.Errorf("single-point CDF(6.9) = %v", got)
	}
}

// TestMixtureComponentsNormalized checks that the component weights are
// normalized, through the mixture's mean and CDF.
func TestMixtureComponentsNormalized(t *testing.T) {
	a, err := NewDeterministic(10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDeterministic(100)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMixture(Component{Weight: 3, Dist: a}, Component{Weight: 1, Dist: b})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Mean(), 0.75*10+0.25*100; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean = %v, want %v", got, want)
	}
	// A mixture of point masses has a step CDF; check the plateaus.
	if got := m.CDF(50); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("CDF(50) = %v", got)
	}
}

// TestDescribe checks the reporting format is stable and sorted.
func TestDescribe(t *testing.T) {
	w, err := NewWeibull(1.5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := Describe(w); got != "weibull(scale=1000, shape=1.5)" {
		t.Errorf("Describe = %q", got)
	}
	if !strings.Contains(Describe(w), w.Name()) {
		t.Error("Describe does not contain family name")
	}
}

// TestLognormalFromMomentsRecoversMoments checks the moment-matching
// parameterization analytically (no sampling noise).
func TestLognormalFromMomentsRecoversMoments(t *testing.T) {
	l, err := NewLognormalFromMoments(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(l.Mean(), 6) > 1e-12 {
		t.Errorf("mean = %v, want 6", l.Mean())
	}
	if relErr(math.Sqrt(l.Variance()), 8) > 1e-12 {
		t.Errorf("stddev = %v, want 8", math.Sqrt(l.Variance()))
	}
}

func TestSum(t *testing.T) {
	exp, err := NewExponentialFromMean(10)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := NewUniform(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := NewSum(exp, uni)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sum.Mean(), 12.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if sum.Name() != "sum" {
		t.Errorf("Name = %q", sum.Name())
	}
	params := sum.Params()
	if len(params) != 3 { // exponential mean + uniform lo/hi
		t.Errorf("Params = %v, want 3 entries", params)
	}
	// Seeded sample mean converges to the sum of means, and every draw is
	// at least the uniform's lower bound.
	s := rng.NewStream(11, "sum-test")
	total := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		x := sum.Sample(s)
		if x < 1 {
			t.Fatalf("sample %v below the uniform part's lower bound", x)
		}
		total += x
	}
	if mean := total / n; math.Abs(mean-12) > 0.3 {
		t.Errorf("sample mean = %v, want ~12", mean)
	}
	// Fewer than two parts or nil parts are rejected.
	if _, err := NewSum(exp); err == nil {
		t.Error("one-part sum accepted")
	}
	if _, err := NewSum(exp, nil); err == nil {
		t.Error("nil part accepted")
	}
}
