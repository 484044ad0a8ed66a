package statespace

import (
	"fmt"

	"repro/internal/san"
)

// This file is the first consumer of the generated CTMC: a uniformization
// transient solver, generalizing the hand-built birth-death chain behind
// rareevent.BirthDeathHitProbability to any certified model. SolveTransient
// (solve_fast.go) runs the series; this file holds the uniformization rate
// and folds the resulting distribution π(T) and sojourn vector L(T) into the
// reward variables. Rate rewards integrate against L, impulse rewards
// accumulate at rate Σ_edges rate·impulse while the source state is
// occupied, exactly the quantities the simulator estimates.

// ErrSolve reports a numerical-solver failure (never a certificate refusal —
// those happen before the solver runs).
var ErrSolve = fmt.Errorf("statespace: solve failed")

// maxUniformizationConstant bounds ΛT: beyond it the Poisson series needs
// too many terms for the solver to beat simulation.
const maxUniformizationConstant = 1e6

// maxExitRate returns the largest total outgoing rate (self-loops excluded).
func (g *Generator) maxExitRate() float64 {
	maxExit := 0.0
	for s := range g.Transitions {
		exit := 0.0
		for _, t := range g.Transitions[s] {
			if t.To != s {
				exit += t.Rate
			}
		}
		if exit > maxExit {
			maxExit = exit
		}
	}
	return maxExit
}

// impulseFlux returns, per state, the impulse-reward accumulation rate of
// reward ri while the state is occupied: Σ over outgoing edges (self-loops
// included) of rate · impulse.
func (g *Generator) impulseFlux(ri int) []float64 {
	flux := make([]float64, len(g.States))
	for s := range g.Transitions {
		for _, t := range g.Transitions[s] {
			if ri < len(t.Impulses) {
				flux[s] += t.Rate * t.Impulses[ri]
			}
		}
	}
	return flux
}

// stateRates evaluates reward ri's rate function in every state, with panic
// recovery.
func (g *Generator) stateRates(ri int) ([]float64, error) {
	rv := g.cm.Rewards()[ri]
	rates := make([]float64, len(g.States))
	if rv.Rate == nil {
		return rates, nil
	}
	for s, mark := range g.States {
		r, err := evalRewardRate(rv, mark)
		if err != nil {
			return nil, err
		}
		rates[s] = r
	}
	return rates, nil
}

func evalRewardRate(rv san.RewardVariable, mark []int) (r float64, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: reward %q rate panicked: %v", ErrSolve, rv.Name, rec)
		}
	}()
	return rv.Rate(markingVec(mark)), nil
}

// evalRewards folds the transient distribution π(T) and sojourn vector L(T)
// into the reward variables, following the simulator's semantics: a
// time-averaged reward is (∫rate + impulses)/T, an accumulated reward is
// ∫rate + impulses, an instant-of-time reward is the rate expectation under
// π(T).
func (g *Generator) evalRewards(pi, sojourn []float64, T float64) (map[string]float64, error) {
	out := make(map[string]float64, len(g.cm.Rewards()))
	for ri, rv := range g.cm.Rewards() {
		rates, err := g.stateRates(ri)
		if err != nil {
			return nil, err
		}
		switch rv.Mode {
		case san.InstantAtEnd:
			total := 0.0
			for s := range pi {
				total += pi[s] * rates[s]
			}
			out[rv.Name] = total
		default:
			total := g.InitialImpulses[ri]
			for s := range sojourn {
				total += sojourn[s] * rates[s]
			}
			if len(rv.Impulses) > 0 {
				flux := g.impulseFlux(ri)
				for s := range sojourn {
					total += sojourn[s] * flux[s]
				}
			}
			if rv.Mode == san.TimeAveraged {
				total /= T
			}
			out[rv.Name] = total
		}
	}
	return out, nil
}
