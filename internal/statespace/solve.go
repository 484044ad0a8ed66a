package statespace

import (
	"fmt"

	"repro/internal/san"
)

// This file is the first consumer of the generated CTMC: a uniformization
// transient solver, generalizing the hand-built birth-death chain behind
// rareevent.BirthDeathHitProbability to any certified model. SolveTransient
// (solve_fast.go) runs the series once per projection (project.go); this
// file holds a projection's uniformization rate and folds its distribution
// π(T) and sojourn vector L(T) over classes into its reward variables. Rate
// rewards integrate against L, impulse rewards accumulate at rate
// Σ_edges rate·impulse while the source class is occupied, exactly the
// quantities the simulator estimates.

// ErrSolve reports a numerical-solver failure (never a certificate refusal —
// those happen before the solver runs).
var ErrSolve = fmt.Errorf("statespace: solve failed")

// maxUniformizationConstant bounds ΛT: beyond it the Poisson series needs
// too many terms for the solver to beat simulation.
const maxUniformizationConstant = 1e6

// maxExitRate returns the largest total cross-class rate out of p's
// representatives: on the identity projection, the largest exit rate with
// self-loops excluded.
func (g *Generator) maxExitRate(p *projection) float64 {
	maxExit := 0.0
	for c, r := range p.reps {
		exit := 0.0
		for _, e := range g.out(int(r)) {
			if p.classOf[e.to] != int32(c) {
				exit += g.kinds[e.kind].rate()
			}
		}
		if exit > maxExit {
			maxExit = exit
		}
	}
	return maxExit
}

// impulseFlux returns, per class of p, the impulse-reward accumulation rate
// of reward ri while the class is occupied: Σ over its representative's
// outgoing edges (same-class edges and self-loops included) of rate ·
// impulse.
func (g *Generator) impulseFlux(p *projection, ri int) []float64 {
	flux := make([]float64, len(p.reps))
	for c, r := range p.reps {
		for _, e := range g.out(int(r)) {
			if kd := g.kinds[e.kind]; kd.imp != 0 {
				flux[c] += float64(kd.rate() * g.impulses[kd.imp][ri])
			}
		}
	}
	return flux
}

// stateRates evaluates reward ri's rate function on every class
// representative of p, with panic recovery.
func (g *Generator) stateRates(p *projection, ri int) ([]float64, error) {
	rv := g.cm.Rewards()[ri]
	rates := make([]float64, len(p.reps))
	if rv.Rate == nil {
		return rates, nil
	}
	var mark markingVec
	for c, r := range p.reps {
		mark = g.Marking(int(r), mark)
		v, err := evalRewardRate(rv, &mark)
		if err != nil {
			return nil, err
		}
		rates[c] = v
	}
	return rates, nil
}

func evalRewardRate(rv san.RewardVariable, mark san.MarkingReader) (r float64, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: reward %q rate panicked: %v", ErrSolve, rv.Name, rec)
		}
	}()
	return rv.Rate(mark), nil
}

// evalRewards folds p's transient class distribution π(T) and sojourn
// vector L(T) into p's reward variables, writing them into out, following
// the simulator's semantics: a time-averaged reward is (∫rate +
// impulses)/T, an accumulated reward is ∫rate + impulses, an
// instant-of-time reward is the rate expectation under π(T).
func (g *Generator) evalRewards(p *projection, pi, sojourn []float64, T float64, out map[string]float64) error {
	rewards := g.cm.Rewards()
	for _, ri := range p.rewards {
		rv := rewards[ri]
		rates, err := g.stateRates(p, ri)
		if err != nil {
			return err
		}
		switch rv.Mode {
		case san.InstantAtEnd:
			total := 0.0
			for c := range pi {
				total += pi[c] * rates[c]
			}
			out[rv.Name] = total
		default:
			total := g.InitialImpulses[ri]
			for c := range sojourn {
				total += sojourn[c] * rates[c]
			}
			if len(rv.Impulses) > 0 {
				flux := g.impulseFlux(p, ri)
				for c := range sojourn {
					total += sojourn[c] * flux[c]
				}
			}
			if rv.Mode == san.TimeAveraged {
				total /= T
			}
			out[rv.Name] = total
		}
	}
	return nil
}
