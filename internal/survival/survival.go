// Package survival implements the survival analysis the paper applies to the
// ABE disk-failure logs: maximum-likelihood fitting of a Weibull hazard model
// with right-censored observations (the paper reports a fitted shape parameter of 0.6963571 with
// standard deviation 0.1923109 on n=480 disks).
package survival

import (
	"errors"
	"fmt"
	"math"
)

// Observation is a single subject in a survival study: a time on test (in
// hours) and whether the event of interest (failure) was observed or the
// subject was right-censored at that time (still working when the log ends).
type Observation struct {
	Time  float64
	Event bool // true = failure observed, false = right-censored
}

// Errors returned by the fitting routines.
var (
	ErrNoEvents    = errors.New("survival: no failure events in sample")
	ErrInvalidTime = errors.New("survival: observation with non-positive time")
	ErrNoData      = errors.New("survival: empty sample")
)

// ---------------------------------------------------------------------------
// Weibull maximum likelihood with right censoring
// ---------------------------------------------------------------------------

// WeibullFit is the result of fitting a Weibull lifetime model to censored
// data by maximum likelihood.
type WeibullFit struct {
	Shape       float64 // β
	Scale       float64 // η (hours)
	ShapeStdErr float64 // standard error of β from observed information
	Events      int     // number of uncensored failures
	N           int     // total observations
	LogLik      float64 // maximized log-likelihood
}

// MTBF returns the mean time between failures implied by the fit,
// η·Γ(1+1/β), in hours.
func (f WeibullFit) MTBF() float64 {
	return f.Scale * math.Gamma(1+1/f.Shape)
}

// AFR returns the annualized failure rate fraction implied by the fitted
// MTBF (AFR = 8760/MTBF).
func (f WeibullFit) AFR() float64 {
	return 8760.0 / f.MTBF()
}

// String summarizes the fit in the form the paper reports it.
func (f WeibullFit) String() string {
	return fmt.Sprintf("Weibull fit: shape=%.7f (se %.7f), scale=%.1f h, events=%d/%d",
		f.Shape, f.ShapeStdErr, f.Scale, f.Events, f.N)
}

// FitWeibull fits a Weibull distribution to right-censored survival data by
// profile maximum likelihood. For a fixed shape β the MLE of the scale has
// the closed form η^β = Σ t_i^β / d (sum over all observations, d = number of
// events), so only a one-dimensional search over β is needed. The shape
// standard error is derived from the numerically evaluated observed
// information matrix.
func FitWeibull(obs []Observation) (WeibullFit, error) {
	if len(obs) == 0 {
		return WeibullFit{}, ErrNoData
	}
	events := 0
	for _, o := range obs {
		if o.Time <= 0 || math.IsNaN(o.Time) || math.IsInf(o.Time, 0) {
			return WeibullFit{}, fmt.Errorf("%w: %v", ErrInvalidTime, o.Time)
		}
		if o.Event {
			events++
		}
	}
	if events == 0 {
		return WeibullFit{}, ErrNoEvents
	}

	// profileScore is the derivative of the profile log-likelihood w.r.t. β
	// (up to a positive factor); its root is the MLE of β.
	profileScore := func(beta float64) float64 {
		var sumTB, sumTBlnT, sumLnTEvents float64
		for _, o := range obs {
			tb := math.Pow(o.Time, beta)
			lnT := math.Log(o.Time)
			sumTB += tb
			sumTBlnT += tb * lnT
			if o.Event {
				sumLnTEvents += lnT
			}
		}
		return sumTBlnT/sumTB - 1/beta - sumLnTEvents/float64(events)
	}

	// Bracket the root. profileScore is increasing in β for typical data;
	// scan a broad range to find a sign change.
	lo, hi := 1e-3, 1.0
	fLo := profileScore(lo)
	fHi := profileScore(hi)
	for fHi < 0 && hi < 1e3 {
		lo, fLo = hi, fHi
		hi *= 2
		fHi = profileScore(hi)
	}
	for fLo > 0 && lo > 1e-9 {
		hi, fHi = lo, fLo
		lo /= 2
		fLo = profileScore(lo)
	}
	if fLo > 0 || fHi < 0 {
		return WeibullFit{}, errors.New("survival: failed to bracket Weibull shape MLE")
	}
	// Bisection: robust and plenty fast for a 1-D root.
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if profileScore(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	shape := (lo + hi) / 2

	// Closed-form scale given shape.
	var sumTB float64
	for _, o := range obs {
		sumTB += math.Pow(o.Time, shape)
	}
	scale := math.Pow(sumTB/float64(events), 1/shape)

	fit := WeibullFit{Shape: shape, Scale: scale, Events: events, N: len(obs)}
	fit.LogLik = weibullLogLik(obs, shape, scale)
	fit.ShapeStdErr = shapeStdErr(obs, shape, scale)
	return fit, nil
}

// weibullLogLik evaluates the censored Weibull log-likelihood.
func weibullLogLik(obs []Observation, shape, scale float64) float64 {
	var ll float64
	for _, o := range obs {
		z := o.Time / scale
		zb := math.Pow(z, shape)
		if o.Event {
			ll += math.Log(shape/scale) + (shape-1)*math.Log(z) - zb
		} else {
			ll += -zb
		}
	}
	return ll
}

// shapeStdErr approximates the standard error of the shape estimate from the
// observed information matrix, evaluated by central finite differences of
// the log-likelihood and inverted analytically (2x2 matrix).
func shapeStdErr(obs []Observation, shape, scale float64) float64 {
	hB := math.Max(1e-5, shape*1e-4)
	hE := math.Max(1e-3, scale*1e-4)
	ll := func(b, e float64) float64 { return weibullLogLik(obs, b, e) }

	l0 := ll(shape, scale)
	dbb := (ll(shape+hB, scale) - 2*l0 + ll(shape-hB, scale)) / (hB * hB)
	dee := (ll(shape, scale+hE) - 2*l0 + ll(shape, scale-hE)) / (hE * hE)
	dbe := (ll(shape+hB, scale+hE) - ll(shape+hB, scale-hE) -
		ll(shape-hB, scale+hE) + ll(shape-hB, scale-hE)) / (4 * hB * hE)

	// Observed information I = -Hessian; Var(shape) = [I^{-1}]_{11}.
	ibb, iee, ibe := -dbb, -dee, -dbe
	det := ibb*iee - ibe*ibe
	if det <= 0 {
		return math.NaN()
	}
	varShape := iee / det
	if varShape <= 0 {
		return math.NaN()
	}
	return math.Sqrt(varShape)
}
