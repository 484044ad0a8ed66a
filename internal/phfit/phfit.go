// Package phfit fits certified approximate phase-type surrogates for the
// non-memoryless delays the exact expansion pass (san.ExpandPhases) cannot
// touch: Weibull wear-out, uniform repair windows, lognormal outages,
// empirical samples, and deterministic timers have no exact finite
// phase-type form, but a moment-matched acyclic phase-type distribution can
// stand in for them — and the substitution is only admissible here when its
// distance to the original is *proven* small.
//
// Every fit therefore returns, alongside the surrogate, a certified upper
// bound on a CDF distance:
//
//   - For continuous targets the bound is on the Kolmogorov (sup-norm CDF)
//     distance, evaluated on a deterministic bracketing grid: both CDFs are
//     monotone, so on a cell [a, b] the sup of |F-G| is at most
//     max(F(b)-G(a), G(b)-F(a)), and the max over cells plus the tail term
//     is a rigorous upper bound (up to float rounding), never an estimate.
//   - For a deterministic point mass the Kolmogorov metric is useless — any
//     continuous CDF is at sup-distance >= 1/2 from a unit step — so the
//     fit is certified in a relative Lévy metric instead: the smallest
//     epsilon such that the surrogate puts at most epsilon probability
//     below (1-epsilon)d and at most epsilon above (1+epsilon)d, computed
//     by bisection. The metric is named in the result so a report can never
//     silently conflate the two.
//
// The fit families mirror the classical moment-matching constructions:
// hypoexponential chains (k-1 equal stages plus one slower stage) matching
// mean and variance for squared coefficients of variation below 1, the
// closest-integer-shape Erlang as the chain's degenerate equal-rate case,
// two-branch hyperexponentials matching three moments (with a two-moment
// balanced-means fallback) for squared coefficients of variation above 1,
// and high-order Erlangs for point masses with the order chosen from the
// tolerance. A target whose achievable bound exceeds the caller's tolerance
// is refused with ErrNonFittable — the caller falls back to simulation,
// never to an uncertified surrogate.
package phfit

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/dist"
)

// MaxPhases bounds the surrogate size, matching the exact expansion pass's
// chain budget: beyond it the state-space blow-up defeats the point of
// solving the model numerically.
const MaxPhases = 64

// Metric names recorded in fit results. Every consumer that prints a bound
// must print the metric with it.
const (
	// MetricKolmogorov is the sup-norm distance between CDFs.
	MetricKolmogorov = "kolmogorov"
	// MetricLevy is the relative Lévy metric used for point masses: the
	// smallest eps with F(d(1-eps)) <= eps and 1-F(d(1+eps)) <= eps.
	MetricLevy = "levy"
)

// ErrNonFittable reports that no surrogate in the supported families meets
// the caller's tolerance (or that the target exposes no usable moments or
// CDF). It classifies the refusal; it never accompanies a usable fit.
var ErrNonFittable = errors.New("phfit: no phase-type surrogate within tolerance")

// gridPoints is the per-CDF quantile count of the bracketing grid. The grid
// bound is valid for any grid; this many points from each CDF keeps the
// slack (the bound's excess over the true sup distance) near 2/gridPoints.
const gridPoints = 512

// mergeRelTol collapses a two-rate chain to an Erlang when the stage rates
// agree to this relative precision; the distinct-rate CDF formula divides by
// the rate gap and loses all precision there.
const mergeRelTol = 1e-9

// Surrogate is a fitted acyclic phase-type distribution in one of two
// shapes: a sequential chain of exponential stages (k-1 stages at rate1
// followed by one at rate2; rate1 == rate2 is the Erlang, k == 1 a single
// exponential) or a two-branch hyperexponential mixture (rate1 with
// probability p, rate2 otherwise). The zero value is not a valid surrogate;
// values come from Fit.
type Surrogate struct {
	mixture      bool
	k            int
	rate1, rate2 float64
	p            float64
}

// Mixture reports whether the surrogate is a two-branch hyperexponential
// (true) or a sequential chain (false).
func (s Surrogate) Mixture() bool { return s.mixture }

// Phases returns the number of exponential phases the surrogate occupies: 2
// for a mixture, the chain length otherwise.
func (s Surrogate) Phases() int {
	if s.mixture {
		return 2
	}
	return s.k
}

// Rates returns the stage rates of a chain surrogate in the order the
// stages elapse, or the two branch rates of a mixture.
func (s Surrogate) Rates() []float64 {
	if s.mixture {
		return []float64{s.rate1, s.rate2}
	}
	rates := make([]float64, s.k)
	for i := 0; i < s.k-1; i++ {
		rates[i] = s.rate1
	}
	rates[s.k-1] = s.rate2
	return rates
}

// BranchProbability returns the probability of the rate1 branch of a
// mixture surrogate, and 0 for chains.
func (s Surrogate) BranchProbability() float64 {
	if !s.mixture {
		return 0
	}
	return s.p
}

// Family names the surrogate's distribution family for evidence strings.
func (s Surrogate) Family() string {
	switch {
	case s.mixture:
		return "hyperexponential"
	case s.k == 1:
		return "exponential"
	case s.rate1 == s.rate2:
		return "erlang"
	default:
		return "hypoexponential"
	}
}

// Mean returns the surrogate's expected value.
func (s Surrogate) Mean() float64 {
	if s.mixture {
		return s.p/s.rate1 + (1-s.p)/s.rate2
	}
	return float64(s.k-1)/s.rate1 + 1/s.rate2
}

// CDF evaluates the surrogate's cumulative distribution function.
func (s Surrogate) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	switch {
	case s.mixture:
		return clamp01(-s.p*math.Expm1(-s.rate1*x) - (1-s.p)*math.Expm1(-s.rate2*x))
	case s.k == 1:
		return clamp01(-math.Expm1(-s.rate2 * x))
	case s.rate1 == s.rate2:
		return clamp01(dist.RegularizedGammaP(float64(s.k), s.rate1*x))
	default:
		// Erlang(k-1, rate1) convolved with Exp(rate2), rate1 > rate2:
		//   F(x) = P(m, r1 x) - e^(-r2 x) (r1/(r1-r2))^m P(m, (r1-r2) x)
		// with m = k-1 and P the regularized lower incomplete gamma. The
		// second term is assembled in log space: the ratio power overflows
		// long before the product stops being meaningful.
		m := float64(s.k - 1)
		gap := s.rate1 - s.rate2
		logTerm := -s.rate2*x + m*math.Log(s.rate1/gap) + dist.LogRegularizedGammaP(m, gap*x)
		return clamp01(dist.RegularizedGammaP(m, s.rate1*x) - math.Exp(logTerm))
	}
}

// Quantile inverts the CDF by bisection (no closed form exists for chains).
func (s Surrogate) Quantile(p float64) float64 {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	if p == 0 {
		return 0
	}
	if p == 1 {
		return math.Inf(1)
	}
	lo, hi := 0.0, s.Mean()+1
	for s.CDF(hi) < p {
		lo = hi
		hi *= 2
		if math.IsInf(hi, 1) {
			return math.Inf(1)
		}
	}
	for i := 0; i < 200; i++ {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if s.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Describe renders the surrogate for evidence strings.
func (s Surrogate) Describe() string {
	switch {
	case s.mixture:
		return fmt.Sprintf("hyperexponential(p=%g at rate %g/h, else rate %g/h)", s.p, s.rate1, s.rate2)
	case s.k == 1:
		return fmt.Sprintf("exponential(rate=%g/h)", s.rate2)
	case s.rate1 == s.rate2:
		return fmt.Sprintf("erlang(k=%d, rate=%g/h)", s.k, s.rate1)
	default:
		return fmt.Sprintf("hypoexponential(%d stages at rate %g/h + 1 at rate %g/h)", s.k-1, s.rate1, s.rate2)
	}
}

// Result is one certified fit: the surrogate, the metric it is certified
// in, the proven distance bound, the tolerance it was proven against, and
// the raw moments of the original that the construction matched.
type Result struct {
	Surrogate Surrogate
	// Metric is MetricKolmogorov or MetricLevy.
	Metric string
	// Bound is the certified upper bound on the metric distance between the
	// original distribution and the surrogate.
	Bound float64
	// Tolerance is the caller's tolerance the bound was proven against.
	Tolerance float64
	// MomentsMatched counts the leading raw moments the construction
	// matches exactly (before float rounding): 3 for the three-moment
	// hyperexponential, 2 for two-moment chains and the balanced-means
	// fallback, 1 for the tolerance-ordered Erlang of a point mass.
	MomentsMatched int
	// TargetMoments holds the original's first three raw moments.
	TargetMoments [3]float64
}

// cdfQuantiler is the capability the bound certification needs from the
// original distribution.
type cdfQuantiler interface {
	dist.CDFer
	dist.Quantiler
}

// Fit fits a phase-type surrogate for d and certifies its distance bound
// against tol (in (0, 1)). It returns ErrNonFittable (wrapped, with the
// achievable bound in the message) when no supported surrogate meets tol,
// and a plain error for unusable tolerances.
func Fit(d dist.Distribution, tol float64) (Result, error) {
	if math.IsNaN(tol) || tol <= 0 || tol >= 1 {
		return Result{}, fmt.Errorf("phfit: tolerance must be in (0, 1), got %v", tol)
	}
	if det, ok := d.(dist.Deterministic); ok {
		return fitDeterministic(det, tol)
	}
	target, ok := d.(cdfQuantiler)
	if !ok {
		return Result{}, fmt.Errorf("%w: %s exposes no CDF/quantile to certify a bound against", ErrNonFittable, dist.Describe(d))
	}
	m1, m2, m3, ok := dist.RawMoments(d)
	if !ok {
		return Result{}, fmt.Errorf("%w: %s exposes no closed-form moments to match", ErrNonFittable, dist.Describe(d))
	}
	if !(m1 > 0) || math.IsInf(m1, 1) {
		return Result{}, fmt.Errorf("%w: %s has unusable mean %v", ErrNonFittable, dist.Describe(d), m1)
	}
	v := m2 - m1*m1
	cv2 := v / (m1 * m1)
	var (
		sur     Surrogate
		matched int
	)
	switch {
	case math.Abs(cv2-1) <= 1e-9:
		sur = Surrogate{k: 1, rate1: 1 / m1, rate2: 1 / m1}
		matched = 2
	case cv2 < 1:
		if cv2 < 1/float64(MaxPhases) {
			return Result{}, fmt.Errorf(
				"%w: %s has squared coefficient of variation %.4g; matching it needs more than the %d-phase budget",
				ErrNonFittable, dist.Describe(d), cv2, MaxPhases)
		}
		k := int(math.Ceil(1/cv2 - 1e-12))
		if k < 2 {
			k = 2
		}
		// k-1 stages of mean a plus one of mean b: m1 = (k-1)a + b,
		// v = (k-1)a^2 + b^2; the smaller root keeps both means positive
		// for 1/k <= cv2 < 1.
		s := math.Sqrt(math.Max(0, (float64(k)*v-m1*m1)/float64(k-1)))
		a := (m1 - s) / float64(k)
		b := (m1 + float64(k-1)*s) / float64(k)
		if (b-a)/b <= mergeRelTol {
			rate := float64(k) / m1
			sur = Surrogate{k: k, rate1: rate, rate2: rate}
		} else {
			sur = Surrogate{k: k, rate1: 1 / a, rate2: 1 / b}
		}
		matched = 2
	default:
		sur, matched = fitHyper(m1, m2, m3, cv2)
	}
	bound := kolmogorovBound(target, sur)
	res := Result{
		Surrogate:      sur,
		Metric:         MetricKolmogorov,
		Bound:          bound,
		Tolerance:      tol,
		MomentsMatched: matched,
		TargetMoments:  [3]float64{m1, m2, m3},
	}
	if bound > tol {
		return Result{}, fmt.Errorf(
			"%w: best %s for %s has certified %s distance %.4g > tolerance %.4g",
			ErrNonFittable, sur.Family(), dist.Describe(d), res.Metric, bound, tol)
	}
	return res, nil
}

// fitHyper fits a two-branch hyperexponential for cv2 > 1: three-moment
// matching via the two-atom Stieltjes construction when feasible, the
// two-moment balanced-means mixture otherwise.
func fitHyper(m1, m2, m3, cv2 float64) (Surrogate, int) {
	// Normalized moments mu_k = m_k/k! turn the branch means x1, x2 into
	// the atoms of a two-point measure with weights p, 1-p matching
	// mu_k = p x1^k + (1-p) x2^k; the atoms solve x^2 = alpha x + beta.
	mu1, mu2, mu3 := m1, m2/2, m3/6
	denom := mu2 - mu1*mu1 // > 0 exactly when cv2 > 1
	alpha := (mu3 - mu1*mu2) / denom
	beta := mu2 - alpha*mu1
	if disc := alpha*alpha + 4*beta; disc > 0 {
		root := math.Sqrt(disc)
		x1 := (alpha + root) / 2 // slower branch (larger mean)
		x2 := (alpha - root) / 2
		if x2 > 0 && x1 > x2 {
			p := (mu1 - x2) / (x1 - x2)
			if p > 0 && p < 1 {
				return Surrogate{mixture: true, p: p, rate1: 1 / x1, rate2: 1 / x2}, 3
			}
		}
	}
	// Balanced means: both branches contribute m1/2 to the mean, leaving p
	// to absorb the variance.
	p := (1 + math.Sqrt((cv2-1)/(cv2+1))) / 2
	return Surrogate{mixture: true, p: p, rate1: 2 * p / m1, rate2: 2 * (1 - p) / m1}, 2
}

// fitDeterministic fits a point mass at its value d with an Erlang(k, k/d)
// — mean d, width shrinking as 1/sqrt(k) — choosing the smallest order
// whose certified relative Lévy distance meets tol.
func fitDeterministic(det dist.Deterministic, tol float64) (Result, error) {
	d := det.Mean()
	if !(d > 0) {
		return Result{}, fmt.Errorf("%w: deterministic(0) is a zero delay, not a fittable timer", ErrNonFittable)
	}
	best := math.Inf(1)
	for k := 1; k <= MaxPhases; k++ {
		rate := float64(k) / d
		sur := Surrogate{k: k, rate1: rate, rate2: rate}
		bound := levyBound(sur, d)
		if bound < best {
			best = bound
		}
		if bound <= tol {
			return Result{
				Surrogate:      sur,
				Metric:         MetricLevy,
				Bound:          bound,
				Tolerance:      tol,
				MomentsMatched: 1,
				TargetMoments:  [3]float64{d, d * d, d * d * d},
			}, nil
		}
	}
	return Result{}, fmt.Errorf(
		"%w: erlang(%d) for deterministic(%g) has certified %s distance %.4g > tolerance %.4g",
		ErrNonFittable, MaxPhases, d, MetricLevy, best, tol)
}

// levyBound certifies the relative Lévy distance between sur and the point
// mass at d: the returned eps satisfies sur.CDF(d(1-eps)) <= eps and
// 1 - sur.CDF(d(1+eps)) <= eps (the predicate is monotone in eps, so the
// upper bisection endpoint is a certified upper bound).
func levyBound(sur Surrogate, d float64) float64 {
	ok := func(eps float64) bool {
		return sur.CDF(d*(1-eps)) <= eps && 1-sur.CDF(d*(1+eps)) <= eps
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 80; i++ {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if ok(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// kolmogorovBound certifies an upper bound on sup_x |F(x) - G(x)| between
// the target F and the surrogate G on a deterministic bracketing grid drawn
// from both CDFs' quantiles. Monotonicity bounds each cell [a, b] by
// max(F(b)-G(a), G(b)-F(a)) and the tail beyond the last point by
// max(1-F, 1-G) there, so the result is an upper bound for any grid; the
// grid density only controls its slack.
func kolmogorovBound(target cdfQuantiler, sur Surrogate) float64 {
	xs := make([]float64, 0, 2*gridPoints+4)
	for i := 1; i < gridPoints; i++ {
		p := float64(i) / gridPoints
		xs = append(xs, target.Quantile(p), sur.Quantile(p))
	}
	// Tail anchors push the final cell far enough out that its bound term
	// max(1-F, 1-G) is negligible against any usable tolerance.
	for _, p := range []float64{1 - 1e-6, 1 - 1e-9} {
		xs = append(xs, target.Quantile(p), sur.Quantile(p))
	}
	sort.Float64s(xs)
	bound, prev := 0.0, 0.0
	fPrev, gPrev := 0.0, 0.0
	for _, x := range xs {
		if !(x > prev) || math.IsInf(x, 1) {
			continue
		}
		fx, gx := target.CDF(x), sur.CDF(x)
		if cell := math.Max(fx-gPrev, gx-fPrev); cell > bound {
			bound = cell
		}
		prev, fPrev, gPrev = x, fx, gx
	}
	if tail := math.Max(1-fPrev, 1-gPrev); tail > bound {
		bound = tail
	}
	return bound
}

// clamp01 confines float-rounded CDF values to [0, 1].
func clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}
