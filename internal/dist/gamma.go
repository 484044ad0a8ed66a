package dist

import (
	"math"

	"repro/internal/rng"
)

// Gamma models multi-stage repair and service processes; the Erlang special
// case (integer shape) is the classical "k exponential stages in series"
// repair model. Shape 1 degenerates to the exponential.
type Gamma struct {
	shape, scale float64
}

// NewGamma returns a gamma distribution with the given shape (k) and scale
// (theta) parameters.
func NewGamma(shape, scale float64) (Gamma, error) {
	if err := checkPositive("shape", shape); err != nil {
		return Gamma{}, err
	}
	if err := checkPositive("scale", scale); err != nil {
		return Gamma{}, err
	}
	return Gamma{shape: shape, scale: scale}, nil
}

// NewErlang returns the Erlang distribution with k exponential stages of the
// given rate: a Gamma with integer shape k and scale 1/rate.
func NewErlang(k int, rate float64) (Gamma, error) {
	if k <= 0 {
		return Gamma{}, errInvalidf("Erlang stage count must be positive, got %d", k)
	}
	if err := checkPositive("rate", rate); err != nil {
		return Gamma{}, err
	}
	return Gamma{shape: float64(k), scale: 1 / rate}, nil
}

// Shape returns the shape (k) parameter.
func (g Gamma) Shape() float64 { return g.shape }

// Scale returns the scale (theta) parameter.
func (g Gamma) Scale() float64 { return g.scale }

// Sample draws using the Marsaglia-Tsang (2000) squeeze method. For
// shape < 1 it applies the standard boost: draw from Gamma(shape+1) and
// multiply by U^(1/shape).
func (g Gamma) Sample(s *rng.Stream) float64 {
	shape := g.shape
	boost := 1.0
	if shape < 1 {
		boost = math.Pow(s.OpenFloat64(), 1/shape)
		shape++
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := s.Normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.OpenFloat64()
		// Cheap squeeze first, exact log acceptance second.
		if u < 1-0.0331*x*x*x*x || math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * g.scale * boost
		}
	}
}

// Mean returns shape*scale.
func (g Gamma) Mean() float64 { return g.shape * g.scale }

// Variance returns shape*scale^2.
func (g Gamma) Variance() float64 { return g.shape * g.scale * g.scale }

// ThirdMoment returns E[X^3] = scale^3 * shape*(shape+1)*(shape+2).
func (g Gamma) ThirdMoment() float64 {
	return g.scale * g.scale * g.scale * g.shape * (g.shape + 1) * (g.shape + 2)
}

// CDF returns the regularized lower incomplete gamma P(shape, x/scale).
func (g Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return RegularizedGammaP(g.shape, x/g.scale)
}

// Quantile inverts the CDF numerically; the gamma quantile has no closed
// form. The initial bracket comes from the distribution's mean and standard
// deviation and is expanded as needed.
func (g Gamma) Quantile(p float64) float64 {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	if p == 1 {
		return math.Inf(1)
	}
	hi := g.Mean() + 10*math.Sqrt(g.Variance())
	return invertCDF(g.CDF, p, 0, hi)
}

// Name implements Distribution.
func (Gamma) Name() string { return "gamma" }

// Params implements Distribution.
func (g Gamma) Params() map[string]float64 {
	return map[string]float64{"shape": g.shape, "scale": g.scale}
}

// RegularizedGammaP computes P(a, x) = gamma(a, x)/Gamma(a), the regularized
// lower incomplete gamma function, by series expansion for x < a+1 and by
// the Lentz continued fraction for the complement otherwise (Numerical
// Recipes 6.2).
func RegularizedGammaP(a, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x < a+1 {
		sum, logScale := gammaPSeries(a, x)
		return sum * math.Exp(logScale)
	}
	return 1 - gammaQContinuedFraction(a, x)
}

// LogRegularizedGammaP computes ln P(a, x) without underflow: the series
// branch keeps the well-scaled series sum and its exponent apart, and the
// continued-fraction branch takes log1p of the (small) complement. Products
// of P with huge factors, such as the hypoexponential CDF's rate-ratio
// powers, are assembled in log space from it.
func LogRegularizedGammaP(a, x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	if x < a+1 {
		sum, logScale := gammaPSeries(a, x)
		return math.Log(sum) + logScale
	}
	return math.Log1p(-gammaQContinuedFraction(a, x))
}

const (
	gammaMaxIter = 500
	gammaEps     = 3e-15
)

// gammaPSeries evaluates P(a, x) by its power series, convergent for
// x < a+1, as the series sum and the log of the scale that multiplies it:
// P(a, x) = sum * exp(logScale), logScale = -x + a ln x - ln Gamma(a).
func gammaPSeries(a, x float64) (sum, logScale float64) {
	lg, _ := math.Lgamma(a)
	ap := a
	sum = 1 / a
	del := sum
	for i := 0; i < gammaMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	return sum, -x + a*math.Log(x) - lg
}

// gammaQContinuedFraction evaluates Q(a, x) = 1 - P(a, x) by the modified
// Lentz continued fraction, convergent for x >= a+1.
func gammaQContinuedFraction(a, x float64) float64 {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
