package statespace

import (
	"fmt"

	"repro/internal/san"
)

// This file holds the explorer's semantic core. A firing applies san's
// completion rule (san/fire.go), the rule the simulator applies, to a guarded
// copy of the marking: where the simulator draws one case, the explorer takes
// every case of positive probability, at the probability the draw gives it,
// and a panicking closure or a negative marking becomes an exploration error
// instead of a crash. Vanishing markings (those enabling an instantaneous
// activity) are eliminated on the fly: every timed firing is immediately
// closed under the simulator's instantaneous sweep, so only tangible states
// are interned and the emitted edges carry the path probability and
// accumulated impulse rewards of the elimination. The generated CTMC is
// therefore the chain the simulator samples, state for state and rate for
// rate.

// exploreResult carries the exploration outcome into certificate assembly.
type exploreResult struct {
	err            error  // hard failure: negative marking, panicking closure, unstable sweep
	nonMemoryless  string // non-empty when a reachable state broke memorylessness
	budgetExceeded bool
	observedMax    []int                 // per-place maximum token count over all explored states
	symmetry       *san.SymmetryEvidence // set when the generator is a symmetric quotient
	changes        unionFind             // the places edges change together (explorer.noteChanges)
}

// outcome is one tangible result of a vanishing closure: the settled
// marking, the probability of the instantaneous-case path that led to it,
// and the impulse rewards earned along the path.
type outcome struct {
	mark []int
	prob float64
	imp  []float64
}

// nonMemorylessError classifies a reachable-state memorylessness failure so
// the certificate reports it as a refusal distinct from exploration errors.
type nonMemorylessError string

func (e nonMemorylessError) Error() string { return string(e) }

// fireBranches fires activity a in marking mark, returning one branch per
// probabilistic case with positive probability. Each branch's marking has
// the full firing applied (input side, then the case's output side) and its
// impulse vector holds a's impulse rewards evaluated on the post-fire
// marking, exactly as the simulator earns them.
func (ex *explorer) fireBranches(mark []int, a *san.Activity) ([]outcome, error) {
	in := &guardedWriter{mark: append([]int(nil), mark...)}
	if err := fireInput(a, in); err != nil {
		return nil, err
	}
	cases := a.Cases()
	if len(cases) == 0 {
		// No cases: the simulator applies no output side.
		imp := make([]float64, ex.nRewards)
		if err := addImpulses(ex.cm, a, in, imp); err != nil {
			return nil, err
		}
		return []outcome{{mark: in.mark, prob: 1, imp: imp}}, nil
	}
	probs, err := caseProbs(a, in, make([]float64, len(cases)))
	if err != nil {
		return nil, err
	}
	var branches []outcome
	for ci, p := range probs {
		if p <= 0 {
			continue
		}
		w := &guardedWriter{mark: append([]int(nil), in.mark...)}
		if err := fireOutput(a, &cases[ci], w); err != nil {
			return nil, err
		}
		imp := make([]float64, ex.nRewards)
		if err := addImpulses(ex.cm, a, w, imp); err != nil {
			return nil, err
		}
		branches = append(branches, outcome{mark: w.mark, prob: p, imp: imp})
	}
	return branches, nil
}

// The wrappers below apply one step of san's completion rule each, turning
// a panicking model closure into an error that names the activity. Each
// recovers in its own deferred closure: a shared helper taking the message
// arguments would box them on every firing.

// fireInput applies a's input side to w.
func fireInput(a *san.Activity, w *guardedWriter) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("activity %q: input gate transform panicked: %v", a.Name(), r)
		}
	}()
	a.FireInput(w)
	return w.failure(a)
}

// fireOutput applies case c of a's output side to w.
func fireOutput(a *san.Activity, c *san.Case, w *guardedWriter) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("activity %q: output gate transform panicked: %v", a.Name(), r)
		}
	}()
	c.FireOutput(w)
	return w.failure(a)
}

// caseProbs fills probs (length len(a.Cases()) >= 1) with the probability
// the simulator's draw gives each case of a at post-input marking m:
// CaseMasses over their total, with the residual of the draw range on the
// last case. A lone case has probability 1 and its closure is not evaluated.
func caseProbs(a *san.Activity, m san.MarkingReader, probs []float64) (_ []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("activity %q: case probability panicked: %v", a.Name(), r)
		}
	}()
	last := len(probs) - 1
	if last == 0 {
		probs[0] = 1
		return probs, nil
	}
	total := a.CaseMasses(m, probs)
	if total <= 0 {
		// No selectable mass: the simulator's scan falls through to the last
		// case.
		clear(probs)
		probs[last] = 1
		return probs, nil
	}
	sum := 0.0
	for i := range probs {
		probs[i] /= total
		sum += probs[i]
	}
	if sum < 1 {
		probs[last] += 1 - sum
	}
	return probs, nil
}

// addImpulses adds a's impulse rewards evaluated at the post-fire marking m
// into imp.
func addImpulses(cm *san.CompiledModel, a *san.Activity, m san.MarkingReader, imp []float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("activity %q: impulse reward panicked: %v", a.Name(), r)
		}
	}()
	cm.AddImpulses(a, m, imp)
	return nil
}

// closeVanishing eliminates vanishing markings starting from mark: it runs
// the simulator's instantaneous sweep (model declaration order, scan
// continuing past each firing, sweeps repeating while anything fired),
// branching on probabilistic cases, until every path settles in a tangible
// marking. prob and imp seed the path probability and impulse accumulator.
func (ex *explorer) closeVanishing(mark []int, prob float64, imp []float64) ([]outcome, error) {
	if len(ex.inst) == 0 {
		return []outcome{{mark: mark, prob: prob, imp: imp}}, nil
	}
	var out []outcome
	if err := ex.sweep(mark, prob, imp, 0, false, 0, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// sweep is one pass over the instantaneous activities from index idx;
// firedThisSweep carries whether anything fired earlier in the pass.
func (ex *explorer) sweep(mark []int, prob float64, imp []float64, idx int, firedThisSweep bool, sweeps int, out *[]outcome) error {
	for i := idx; i < len(ex.inst); i++ {
		a := ex.inst[i]
		enabled, err := activityEnabled(a, markingVec(mark))
		if err != nil {
			return err
		}
		if !enabled {
			continue
		}
		branches, err := ex.fireBranches(mark, a)
		if err != nil {
			return err
		}
		if len(branches) == 1 {
			b := branches[0]
			mark = b.mark
			imp = addVec(imp, b.imp, 1)
			prob *= b.prob
			firedThisSweep = true
			continue
		}
		for _, b := range branches {
			if err := ex.sweep(b.mark, prob*b.prob, addVec(append([]float64(nil), imp...), b.imp, 1), i+1, true, sweeps, out); err != nil {
				return err
			}
		}
		return nil
	}
	if !firedThisSweep {
		*out = append(*out, outcome{mark: mark, prob: prob, imp: imp})
		return nil
	}
	if sweeps+1 > maxVanishingSweeps {
		return fmt.Errorf("instantaneous closure did not stabilize within %d sweeps", maxVanishingSweeps)
	}
	return ex.sweep(mark, prob, imp, 0, false, sweeps+1, out)
}

// addAtom adds prob to state si's atom of an initial distribution, appending
// the atom on first sight, so each state appears once, in first-seen order:
// vanishing-closure outcomes that settle in one state share its atom.
func addAtom(atoms []StateProb, si int, prob float64) []StateProb {
	for i := range atoms {
		if atoms[i].State == si {
			atoms[i].Prob += prob
			return atoms
		}
	}
	return append(atoms, StateProb{State: si, Prob: prob})
}

// addVec returns dst with scale·src added in place.
func addVec(dst, src []float64, scale float64) []float64 {
	for i := range src {
		dst[i] += scale * src[i]
	}
	return dst
}

// activityEnabled evaluates the enabling test with panic recovery (gate
// predicates are arbitrary closures).
func activityEnabled(a *san.Activity, m san.MarkingReader) (enabled bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("activity %q: enabling predicate panicked: %v", a.Name(), r)
		}
	}()
	return a.Enabled(m), nil
}

// guardedWriter is the exploration marking writer: it mirrors the
// simulator's negative-token panic as a recorded error, so an ill-formed
// firing becomes a structured exploration refusal instead of a crash.
type guardedWriter struct {
	mark []int
	err  error
}

func (w *guardedWriter) Tokens(p *san.Place) int { return w.mark[p.Index()] }

func (w *guardedWriter) SetTokens(p *san.Place, n int) {
	if n < 0 {
		if w.err == nil {
			w.err = fmt.Errorf("place %q driven to %d tokens", p.Name(), n)
		}
		return
	}
	w.mark[p.Index()] = n
}

func (w *guardedWriter) Add(p *san.Place, delta int) { w.SetTokens(p, w.Tokens(p)+delta) }

// failure returns the first negative-marking error of a's firing, if any.
func (w *guardedWriter) failure(a *san.Activity) error {
	if w.err == nil {
		return nil
	}
	return fmt.Errorf("activity %q: %v", a.Name(), w.err)
}
