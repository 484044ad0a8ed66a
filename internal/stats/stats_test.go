package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	s := NewSummary()
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Fatal("empty summary not zeroed")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d, want 8", s.N())
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Unbiased variance of the classic sample is 32/7.
	if got := s.Variance(); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
	if got := s.Sum(); got != 40 {
		t.Errorf("Sum = %v, want 40", got)
	}
}

func TestConfidenceIntervalKnownValue(t *testing.T) {
	// Sample of 10 values with mean 10, stddev 2: CI halfwidth =
	// t_{0.975,9} * 2/sqrt(10) = 2.262157 * 0.632456 = 1.43064.
	s := NewSummary()
	base := []float64{8, 9, 9.5, 10, 10, 10, 10.5, 11, 11, 11}
	// Rescale to stddev exactly 2 around mean 10.
	tmp := NewSummary()
	for _, v := range base {
		tmp.Add(v)
	}
	scale := 2 / tmp.StdDev()
	for _, v := range base {
		s.Add(10 + (v-tmp.Mean())*scale)
	}
	ci, err := s.ConfidenceInterval(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ci.Mean-10) > 1e-9 {
		t.Errorf("CI mean = %v, want 10", ci.Mean)
	}
	want := 2.262157 * 2 / math.Sqrt(10)
	if math.Abs(ci.HalfWidth-want) > 1e-3 {
		t.Errorf("CI halfwidth = %v, want %v", ci.HalfWidth, want)
	}
	if !ci.Contains(10) || ci.Contains(100) {
		t.Error("Contains misbehaves")
	}
	if ci.Lower() >= ci.Upper() {
		t.Error("Lower >= Upper")
	}
	if ci.String() == "" {
		t.Error("String empty")
	}
}

func TestConfidenceIntervalErrors(t *testing.T) {
	s := NewSummary()
	s.Add(1)
	if _, err := s.ConfidenceInterval(0.95); err == nil {
		t.Error("CI with 1 observation succeeded")
	}
	s.Add(2)
	if _, err := s.ConfidenceInterval(1.5); err == nil {
		t.Error("CI with confidence 1.5 succeeded")
	}
}

func TestStudentTQuantileTable(t *testing.T) {
	cases := []struct {
		p, df, want float64
	}{
		{0.975, 1, 12.706},
		{0.975, 5, 2.571},
		{0.975, 9, 2.262},
		{0.975, 30, 2.042},
		{0.95, 10, 1.812},
		{0.995, 20, 2.845},
		{0.5, 7, 0},
	}
	for _, tc := range cases {
		got := StudentTQuantile(tc.p, tc.df)
		if math.Abs(got-tc.want) > 0.01 {
			t.Errorf("StudentTQuantile(%v, %v) = %v, want %v", tc.p, tc.df, got, tc.want)
		}
	}
	if !math.IsInf(StudentTQuantile(1, 5), 1) || !math.IsInf(StudentTQuantile(0, 5), -1) {
		t.Error("extreme quantiles not infinite")
	}
	if !math.IsNaN(StudentTQuantile(0.5, 0)) {
		t.Error("df=0 should be NaN")
	}
}

func TestStudentTCDFSymmetry(t *testing.T) {
	for _, df := range []float64{1, 3, 10, 50} {
		for _, x := range []float64{0.1, 0.7, 1.5, 3} {
			a := StudentTCDF(x, df)
			b := StudentTCDF(-x, df)
			if math.Abs(a+b-1) > 1e-9 {
				t.Errorf("CDF symmetry violated at x=%v df=%v: %v + %v != 1", x, df, a, b)
			}
		}
		if math.Abs(StudentTCDF(0, df)-0.5) > 1e-12 {
			t.Errorf("CDF(0) != 0.5 for df=%v", df)
		}
	}
}

func TestStudentTApproachesNormal(t *testing.T) {
	// For large df the 97.5% quantile approaches 1.96.
	got := StudentTQuantile(0.975, 1e6)
	if math.Abs(got-1.95996) > 1e-3 {
		t.Errorf("t quantile with huge df = %v, want ~1.96", got)
	}
}

func TestRegularizedIncompleteBeta(t *testing.T) {
	// I_x(1,1) = x.
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := RegularizedIncompleteBeta(1, 1, x); math.Abs(got-x) > 1e-10 {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// I_x(2,2) = 3x^2 - 2x^3.
	for _, x := range []float64{0.2, 0.5, 0.8} {
		want := 3*x*x - 2*x*x*x
		if got := RegularizedIncompleteBeta(2, 2, x); math.Abs(got-want) > 1e-10 {
			t.Errorf("I_%v(2,2) = %v, want %v", x, got, want)
		}
	}
	if RegularizedIncompleteBeta(2, 3, 0) != 0 || RegularizedIncompleteBeta(2, 3, 1) != 1 {
		t.Error("boundary values incorrect")
	}
}

func TestLinearRegressionExact(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{3, 5, 7, 9, 11} // y = 2x + 1
	fit, err := LinearRegression(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-1) > 1e-12 {
		t.Errorf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{1}); err == nil {
		t.Error("regression with 1 point succeeded")
	}
	if _, err := LinearRegression([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("regression with mismatched lengths succeeded")
	}
	if _, err := LinearRegression([]float64{3, 3, 3}, []float64{1, 2, 3}); err == nil {
		t.Error("regression with constant x succeeded")
	}
}

func TestQuantile(t *testing.T) {
	sample := []float64{5, 1, 3, 2, 4}
	if q, err := Quantile(sample, 0.5); err != nil || q != 3 {
		t.Errorf("median = %v (%v), want 3", q, err)
	}
	if q, _ := Quantile(sample, 0); q != 1 {
		t.Errorf("q0 = %v, want 1", q)
	}
	if q, _ := Quantile(sample, 1); q != 5 {
		t.Errorf("q1 = %v, want 5", q)
	}
	if q, _ := Quantile(sample, 0.25); q != 2 {
		t.Errorf("q0.25 = %v, want 2", q)
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("Quantile(nil) succeeded")
	}
	// Ensure input not modified.
	if sample[0] != 5 {
		t.Error("Quantile modified its input")
	}
}

// Property: summary mean always lies within [min, max] and variance >= 0.
func TestQuickSummaryInvariants(t *testing.T) {
	f := func(xs []float64) bool {
		s := NewSummary()
		clean := xs[:0]
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			clean = append(clean, x)
			s.Add(x)
		}
		if len(clean) == 0 {
			return true
		}
		if s.Variance() < 0 {
			return false
		}
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Student-t CDF is monotone non-decreasing in its argument.
func TestQuickStudentTMonotone(t *testing.T) {
	f := func(a, b float64, dfSeed uint8) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		df := float64(dfSeed%60) + 1
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if math.Abs(lo) > 50 || math.Abs(hi) > 50 {
			return true
		}
		return StudentTCDF(lo, df) <= StudentTCDF(hi, df)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.995, 2.575829},
		{0.841344746, 1}, // Phi(1)
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("boundary quantiles should be infinite")
	}
	if !math.IsNaN(NormalQuantile(math.NaN())) {
		t.Error("NaN probability should propagate")
	}
}

func TestBinomialProportionInterval(t *testing.T) {
	ci, err := BinomialProportionInterval(50, 100, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Mean != 0.5 || ci.N != 100 {
		t.Errorf("ci = %+v", ci)
	}
	want := 1.959964 * math.Sqrt(0.25/100)
	if math.Abs(ci.HalfWidth-want) > 1e-5 {
		t.Errorf("half width = %v, want %v", ci.HalfWidth, want)
	}

	// Zero hits: rule-of-three fallback ln(1/0.05)/n ~= 3/n.
	zero, err := BinomialProportionInterval(0, 1000, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Mean != 0 {
		t.Errorf("mean = %v", zero.Mean)
	}
	if math.Abs(zero.HalfWidth-math.Log(20)/1000) > 1e-12 {
		t.Errorf("zero-hit half width = %v", zero.HalfWidth)
	}

	// All hits mirrors the zero-hit bound.
	all, err := BinomialProportionInterval(1000, 1000, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if all.Mean != 1 || all.HalfWidth != zero.HalfWidth {
		t.Errorf("all-hit ci = %+v", all)
	}

	for _, bad := range []struct{ h, n int }{{-1, 10}, {11, 10}, {0, 0}} {
		if _, err := BinomialProportionInterval(bad.h, bad.n, 0.95); err == nil {
			t.Errorf("counts %d/%d accepted", bad.h, bad.n)
		}
	}
	if _, err := BinomialProportionInterval(1, 10, 1.5); err == nil {
		t.Error("confidence 1.5 accepted")
	}
}

func TestProductBinomialInterval(t *testing.T) {
	// Single stage reduces to a binomial proportion with delta-method width.
	one, err := ProductBinomialInterval([]SplittingStage{{Trials: 200, Hits: 50}}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(one.Mean-0.25) > 1e-12 {
		t.Errorf("mean = %v", one.Mean)
	}
	wantRel := (1 - 0.25) / (200 * 0.25)
	wantHalf := 1.959964 * 0.25 * math.Sqrt(wantRel)
	if math.Abs(one.HalfWidth-wantHalf) > 1e-5 {
		t.Errorf("half width = %v, want %v", one.HalfWidth, wantHalf)
	}

	// Two stages multiply and the relative variances add.
	two, err := ProductBinomialInterval([]SplittingStage{
		{Trials: 100, Hits: 20},
		{Trials: 100, Hits: 10},
	}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(two.Mean-0.02) > 1e-12 {
		t.Errorf("mean = %v", two.Mean)
	}
	rel := (1-0.2)/(100*0.2) + (1-0.1)/(100*0.1)
	if math.Abs(two.HalfWidth-1.959964*0.02*math.Sqrt(rel)) > 1e-5 {
		t.Errorf("half width = %v", two.HalfWidth)
	}
	if two.N != 200 {
		t.Errorf("N = %d", two.N)
	}

	// A zero-hit stage collapses the estimate to 0 with the conservative
	// product bound as half width.
	zero, err := ProductBinomialInterval([]SplittingStage{
		{Trials: 100, Hits: 20},
		{Trials: 50, Hits: 0},
	}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Mean != 0 {
		t.Errorf("mean = %v", zero.Mean)
	}
	wantBound := 0.2 * math.Log(20) / 50
	if math.Abs(zero.HalfWidth-wantBound) > 1e-12 {
		t.Errorf("bound = %v, want %v", zero.HalfWidth, wantBound)
	}

	if _, err := ProductBinomialInterval(nil, 0.95); err == nil {
		t.Error("empty stages accepted")
	}
	if _, err := ProductBinomialInterval([]SplittingStage{{Trials: 0, Hits: 0}}, 0.95); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := ProductBinomialInterval([]SplittingStage{{Trials: 10, Hits: 5}}, 0); err == nil {
		t.Error("confidence 0 accepted")
	}
}
