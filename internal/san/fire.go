package san

import "math"

// This file is the SAN completion rule, the one definition of what an
// activity's completion does to the marking. The simulator (simulate.go) and
// the state-space explorer (internal/statespace) both apply it, so the chain
// the explorer generates is the chain the simulator samples:
//
//  1. FireInput: the input arcs remove their tokens, then the input gates'
//     transforms run.
//  2. CaseMasses: the selection mass of every case, at the post-input
//     marking.
//  3. FireOutput: the chosen case's output arcs add their tokens, then its
//     output gates' transforms run.
//  4. AddImpulses: the activity's impulse rewards, on the post-fire marking,
//     in reward order.
//
// An activity with no cases applies no output side; one with a single case
// takes it without evaluating its probability.

// FireInput applies the input side of a's completion to w: input arcs, then
// input-gate transforms, each in declaration order.
func (a *Activity) FireInput(w MarkingWriter) {
	for _, arc := range a.inputArcs {
		w.Add(arc.Place, -arc.Mult)
	}
	for _, g := range a.inputGates {
		if g.Transform != nil {
			g.Transform(w)
		}
	}
}

// FireOutput applies case c's output side to w: output arcs, then
// output-gate transforms, each in declaration order.
func (c *Case) FireOutput(w MarkingWriter) {
	for _, arc := range c.OutputArcs {
		w.Add(arc.Place, arc.Mult)
	}
	for _, og := range c.OutputGates {
		if og.Transform != nil {
			og.Transform(w)
		}
	}
}

// CaseMasses writes the selection mass of every case of a at marking m (the
// post-input marking) into masses, which must have length len(a.Cases()), and
// returns the total the selection draw is scaled to. Case i is selected with
// probability masses[i]/total, the last case taking whatever the masses leave
// of the draw range, and all of it when total is 0.
//
// Explicit (marking-dependent) probabilities cannot be checked at model
// validation time, so the masses are defensive against ill-formed values:
// negative probabilities are clamped to 0, and nil-probability cases share
// the mass the explicit ones leave below 1. The total is 1 for well-formed
// cases, the explicit sum when it exceeds 1, and — with no nil case to absorb
// the leftover — the explicit sum also when it falls short of 1, so selection
// degrades to relative weights instead of silently starving or inflating the
// tail cases.
func (a *Activity) CaseMasses(m MarkingReader, masses []float64) (total float64) {
	var explicit float64
	nilCount := 0
	for i, c := range a.cases {
		if c.Probability == nil {
			nilCount++
			continue
		}
		masses[i] = math.Max(0, c.Probability(m))
		explicit += masses[i]
	}
	if nilCount == 0 {
		return explicit
	}
	remainder := math.Max(0, 1-explicit)
	for i, c := range a.cases {
		if c.Probability == nil {
			masses[i] = remainder / float64(nilCount)
		}
	}
	return math.Max(1, explicit)
}

// AddImpulses adds the impulse rewards a's completion earns, evaluated on the
// post-fire marking m, into acc (indexed like Rewards()), in reward order.
func (cm *CompiledModel) AddImpulses(a *Activity, m MarkingReader, acc []float64) {
	for _, ib := range cm.impulsesByActivity[a.index] {
		acc[ib.rewardIndex] += ib.fn(m)
	}
}

// EarnsImpulses reports whether a's completion earns any impulse reward.
func (cm *CompiledModel) EarnsImpulses(a *Activity) bool {
	return len(cm.impulsesByActivity[a.index]) > 0
}
