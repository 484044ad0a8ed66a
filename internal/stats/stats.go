// Package stats provides the statistical machinery used to report simulation
// results the way the paper does: running summaries, Student-t confidence
// intervals at 95%, binomial intervals for rare-event estimators, and simple
// regression utilities.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrInsufficientData reports an estimator invoked with too few observations.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Summary accumulates observations with Welford's online algorithm so that a
// reward variable can be summarized without storing every replication result.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
	sum  float64
}

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	return &Summary{min: math.Inf(1), max: math.Inf(-1)}
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	s.sum += x
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Sum returns the sum of observations.
func (s *Summary) Sum() float64 { return s.sum }

// Min returns the smallest observation (+Inf when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (-Inf when empty).
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance. It returns 0 when fewer
// than two observations have been recorded.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// Interval is a two-sided confidence interval around a point estimate.
type Interval struct {
	Mean       float64
	HalfWidth  float64
	Confidence float64
	N          int
}

// Lower returns the lower bound of the interval.
func (ci Interval) Lower() float64 { return ci.Mean - ci.HalfWidth }

// Upper returns the upper bound of the interval.
func (ci Interval) Upper() float64 { return ci.Mean + ci.HalfWidth }

// Contains reports whether x lies inside the interval.
func (ci Interval) Contains(x float64) bool {
	return x >= ci.Lower() && x <= ci.Upper()
}

// String formats the interval as "mean ± halfwidth (conf%)".
func (ci Interval) String() string {
	return fmt.Sprintf("%.6g ± %.3g (%.0f%%, n=%d)", ci.Mean, ci.HalfWidth, ci.Confidence*100, ci.N)
}

// ConfidenceInterval returns the Student-t confidence interval of the mean at
// the given confidence level (e.g. 0.95). It returns ErrInsufficientData when
// fewer than two observations are available.
func (s *Summary) ConfidenceInterval(confidence float64) (Interval, error) {
	if s.n < 2 {
		return Interval{}, fmt.Errorf("%w: need >=2 observations, have %d", ErrInsufficientData, s.n)
	}
	if !(confidence > 0 && confidence < 1) {
		return Interval{}, fmt.Errorf("stats: confidence %v outside (0,1)", confidence)
	}
	tq := StudentTQuantile(1-(1-confidence)/2, float64(s.n-1))
	return Interval{
		Mean:       s.mean,
		HalfWidth:  tq * s.StdErr(),
		Confidence: confidence,
		N:          s.n,
	}, nil
}

// ---------------------------------------------------------------------------
// Student-t distribution
// ---------------------------------------------------------------------------

// StudentTCDF returns P(T <= t) for a Student-t random variable with df
// degrees of freedom.
func StudentTCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	x := df / (df + t*t)
	ib := RegularizedIncompleteBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - 0.5*ib
	}
	return 0.5 * ib
}

// StudentTQuantile returns the p-quantile of the Student-t distribution with
// df degrees of freedom, computed by bisection on the CDF.
func StudentTQuantile(p, df float64) float64 {
	if df <= 0 || math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	if p == 0.5 {
		return 0
	}
	lo, hi := -1e3, 1e3
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if StudentTCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// NormalQuantile returns the p-quantile of the standard normal distribution,
// computed by bisection on the CDF. It is the large-sample limit of
// StudentTQuantile and is used by estimators whose sampling distribution is
// asymptotically normal (binomial proportions, splitting products).
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	if p == 0.5 {
		return 0
	}
	cdf := func(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }
	lo, hi := -40.0, 40.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// ---------------------------------------------------------------------------
// Binomial and product-of-binomials estimators (rare-event splitting)
// ---------------------------------------------------------------------------

// BinomialProportionInterval returns the normal-approximation confidence
// interval for a binomial proportion hits/trials. When no successes were
// observed the half width falls back to the "rule of three" upper bound
// ln(1/alpha)/trials (≈3/trials at 95%), so an all-miss naive Monte Carlo
// study reports an honest nonzero uncertainty instead of a zero-width
// interval.
func BinomialProportionInterval(hits, trials int, confidence float64) (Interval, error) {
	if trials < 1 || hits < 0 || hits > trials {
		return Interval{}, fmt.Errorf("stats: invalid binomial counts %d/%d", hits, trials)
	}
	if !(confidence > 0 && confidence < 1) {
		return Interval{}, fmt.Errorf("stats: confidence %v outside (0,1)", confidence)
	}
	n := float64(trials)
	p := float64(hits) / n
	var half float64
	switch {
	case hits == 0 || hits == trials:
		half = math.Log(1/(1-confidence)) / n
	default:
		z := NormalQuantile(1 - (1-confidence)/2)
		half = z * math.Sqrt(p*(1-p)/n)
	}
	return Interval{Mean: p, HalfWidth: half, Confidence: confidence, N: trials}, nil
}

// SplittingStage records one stage of a fixed-effort multilevel splitting
// run: how many trajectories were launched and how many reached the next
// importance level.
type SplittingStage struct {
	Trials int
	Hits   int
}

// ProductBinomialInterval estimates p = Π p_k from per-stage binomial counts
// — the fixed-effort multilevel splitting estimator, which is unbiased when
// each stage's restarts preserve the entry state of the trajectories that
// crossed the previous level. The confidence interval comes from the delta
// method on log p̂, treating stages as independent:
//
//	Var(p̂)/p̂² ≈ Σ_k (1 - p_k) / (N_k p_k)
//
// (conditional on the entry-state pools; entry-state reuse makes this an
// approximation). When some stage observed no crossings the estimate is 0
// and the half width degrades to the product of the per-stage upper bounds
// (rule of three for the zero stages), an honest conservative bound.
func ProductBinomialInterval(stages []SplittingStage, confidence float64) (Interval, error) {
	if len(stages) == 0 {
		return Interval{}, fmt.Errorf("%w: no splitting stages", ErrInsufficientData)
	}
	if !(confidence > 0 && confidence < 1) {
		return Interval{}, fmt.Errorf("stats: confidence %v outside (0,1)", confidence)
	}
	totalTrials := 0
	product := 1.0
	relVar := 0.0
	anyZero := false
	upper := 1.0
	for i, st := range stages {
		if st.Trials < 1 || st.Hits < 0 || st.Hits > st.Trials {
			return Interval{}, fmt.Errorf("stats: stage %d has invalid counts %d/%d", i, st.Hits, st.Trials)
		}
		totalTrials += st.Trials
		n := float64(st.Trials)
		pk := float64(st.Hits) / n
		product *= pk
		if st.Hits == 0 {
			anyZero = true
			upper *= math.Log(1/(1-confidence)) / n
			continue
		}
		upper *= pk
		relVar += (1 - pk) / (n * pk)
	}
	if anyZero {
		return Interval{Mean: 0, HalfWidth: upper, Confidence: confidence, N: totalTrials}, nil
	}
	z := NormalQuantile(1 - (1-confidence)/2)
	return Interval{
		Mean:       product,
		HalfWidth:  z * product * math.Sqrt(relVar),
		Confidence: confidence,
		N:          totalTrials,
	}, nil
}

// RegularizedIncompleteBeta computes I_x(a, b) using the continued-fraction
// expansion (Numerical Recipes style, re-derived from the standard Lentz
// algorithm).
func RegularizedIncompleteBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lnBeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lnBeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaContinuedFraction(a, b, x) / a
	}
	return 1 - front*betaContinuedFraction(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

func betaContinuedFraction(a, b, x float64) float64 {
	const (
		maxIter = 500
		eps     = 3e-14
		fpMin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpMin {
		d = fpMin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// ---------------------------------------------------------------------------
// Linear regression
// ---------------------------------------------------------------------------

// LinearFit is the result of an ordinary least squares fit y = Slope*x +
// Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearRegression fits a straight line by ordinary least squares. It returns
// ErrInsufficientData when fewer than two points are supplied or when all x
// values are identical.
func LinearRegression(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, fmt.Errorf("stats: x and y lengths differ (%d vs %d)", len(x), len(y))
	}
	if len(x) < 2 {
		return LinearFit{}, fmt.Errorf("%w: need >=2 points, have %d", ErrInsufficientData, len(x))
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("%w: x values are all identical", ErrInsufficientData)
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1
	}
	return fit, nil
}

// ---------------------------------------------------------------------------
// Quantiles of raw samples
// ---------------------------------------------------------------------------

// Quantile returns the p-quantile of the sample using linear interpolation
// between order statistics. The input slice is not modified.
func Quantile(sample []float64, p float64) (float64, error) {
	if len(sample) == 0 {
		return 0, fmt.Errorf("%w: empty sample", ErrInsufficientData)
	}
	sorted := make([]float64, len(sample))
	copy(sorted, sample)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0], nil
	}
	if p >= 1 {
		return sorted[len(sorted)-1], nil
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
