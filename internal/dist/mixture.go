package dist

import (
	"math"

	"repro/internal/rng"
)

// Component is one weighted branch of a finite Mixture.
type Component struct {
	// Weight is the (unnormalized) probability of this branch.
	Weight float64
	// Dist is the branch distribution.
	Dist Distribution
}

// Mixture is a finite mixture of distributions: with probability
// proportional to its weight, a draw comes from that component. It models
// bimodal repair regimes — e.g. a fast on-site disk swap most of the time
// versus a slow vendor dispatch — without invalidating the delay interface
// the simulator consumes.
type Mixture struct {
	comps []Component
	// cum[i] is the normalized cumulative weight through component i.
	cum []float64
}

// NewMixture returns a mixture over the given components. Weights must be
// positive and finite and are normalized to sum to 1; at least one component
// is required and no component distribution may be nil.
func NewMixture(comps ...Component) (Mixture, error) {
	if len(comps) == 0 {
		return Mixture{}, errInvalidf("mixture needs at least one component")
	}
	total := 0.0
	for i, c := range comps {
		if c.Dist == nil {
			return Mixture{}, errInvalidf("mixture component %d has nil distribution", i)
		}
		if err := checkPositive("mixture weight", c.Weight); err != nil {
			return Mixture{}, err
		}
		total += c.Weight
	}
	owned := make([]Component, len(comps))
	copy(owned, comps)
	cum := make([]float64, len(owned))
	acc := 0.0
	for i, c := range owned {
		acc += c.Weight / total
		cum[i] = acc
	}
	cum[len(cum)-1] = 1 // guard against accumulated rounding
	return Mixture{comps: owned, cum: cum}, nil
}

// Sample picks a component by weight, then samples it.
func (m Mixture) Sample(s *rng.Stream) float64 {
	u := s.Float64()
	for i, c := range m.cum {
		if u < c {
			return m.comps[i].Dist.Sample(s)
		}
	}
	return m.comps[len(m.comps)-1].Dist.Sample(s)
}

// Mean returns the weight-averaged component means.
func (m Mixture) Mean() float64 {
	sum := 0.0
	prev := 0.0
	for i, c := range m.comps {
		w := m.cum[i] - prev
		prev = m.cum[i]
		sum += w * c.Dist.Mean()
	}
	return sum
}

// CDF returns the weighted sum of component CDFs. It returns NaN when any
// component does not implement CDFer.
func (m Mixture) CDF(x float64) float64 {
	sum := 0.0
	prev := 0.0
	for i, c := range m.comps {
		w := m.cum[i] - prev
		prev = m.cum[i]
		cd, ok := c.Dist.(CDFer)
		if !ok {
			return math.NaN()
		}
		sum += w * cd.CDF(x)
	}
	return sum
}

// Quantile inverts the mixture CDF by bisection. It returns NaN when any
// component does not implement CDFer.
func (m Mixture) Quantile(p float64) float64 {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	if math.IsNaN(m.CDF(0)) {
		return math.NaN()
	}
	hi := math.Max(m.Mean()*2, 1)
	return invertCDF(m.CDF, p, 0, hi)
}

// Name implements Distribution.
func (Mixture) Name() string { return "mixture" }

// Params implements Distribution.
func (m Mixture) Params() map[string]float64 {
	return map[string]float64{"components": float64(len(m.comps))}
}
