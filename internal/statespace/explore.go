package statespace

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/san"
)

// This file holds the firing semantics the explorer (explore_fast.go)
// applies to every tangible state. Vanishing markings (those enabling an
// instantaneous activity) are eliminated on the fly: every timed firing is
// immediately closed under the simulator's instantaneous sweep, so only
// tangible states are interned and the emitted edges carry the path
// probability and accumulated impulse rewards of the elimination.
//
// The firing semantics replicate the simulator exactly — input arcs, then
// input-gate transforms, then case selection with the simulator's mass
// normalization, then case output arcs and gates, then the activity's
// impulse rewards on the post-fire marking — so the generated CTMC is the
// chain the simulator samples, state for state and rate for rate.

// impulseBinding resolves one reward variable's impulse function for an
// activity (rebuilt from the compiled model's reward variables, which keep
// their bindings name-keyed).
type impulseBinding struct {
	rewardIndex int
	fn          san.ImpulseFunc
}

// exploreResult carries the exploration outcome into certificate assembly.
type exploreResult struct {
	err            error  // hard failure: negative marking, panicking closure, unstable sweep
	nonMemoryless  string // non-empty when a reachable state broke memorylessness
	budgetExceeded bool
	observedMax    []int                 // per-place maximum token count over all explored states
	symmetry       *san.SymmetryEvidence // set when the generator is a symmetric quotient
}

// outcome is one tangible result of a vanishing closure: the settled
// marking, the probability of the instantaneous-case path that led to it,
// and the impulse rewards earned along the path.
type outcome struct {
	mark []int
	prob float64
	imp  []float64
}

type explorer struct {
	cm        *san.CompiledModel
	inst      []*san.Activity
	timed     []*san.Activity
	nPlaces   int
	nRewards  int
	impulses  [][]impulseBinding // per activity index
	maxStates int

	states      [][]int
	transitions [][]Transition
	observedMax []int
	overBudget  bool
}

// newExplorer builds the semantic core: the timed/instantaneous activity
// split and the per-activity impulse bindings that expansion and the
// vanishing closure evaluate against.
func newExplorer(cm *san.CompiledModel, opts Options) *explorer {
	model := cm.Model()
	ex := &explorer{
		cm:        cm,
		inst:      cm.Instantaneous(),
		nPlaces:   model.NumPlaces(),
		nRewards:  len(cm.Rewards()),
		maxStates: opts.MaxStates,
	}
	for _, a := range model.Activities() {
		if a.Kind() == san.Timed {
			ex.timed = append(ex.timed, a)
		}
	}
	ex.observedMax = make([]int, ex.nPlaces)
	// Rebuild the per-activity impulse bindings from the reward variables
	// (the compiled model's pre-resolved index is private to the simulator).
	// Reward order, then sorted activity names within each reward, matching
	// the simulator's deterministic accumulation order.
	ex.impulses = make([][]impulseBinding, model.NumActivities())
	for ri, rv := range cm.Rewards() {
		names := make([]string, 0, len(rv.Impulses))
		for name := range rv.Impulses {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			a := model.Activity(name)
			if a == nil {
				continue
			}
			ex.impulses[a.Index()] = append(ex.impulses[a.Index()], impulseBinding{rewardIndex: ri, fn: rv.Impulses[name]})
		}
	}
	return ex
}

// nonMemorylessError classifies a reachable-state memorylessness failure so
// the certificate reports it as a refusal distinct from exploration errors.
type nonMemorylessError string

func (e nonMemorylessError) Error() string { return string(e) }

// fireBranches fires activity a in marking mark, returning one branch per
// probabilistic case with positive probability. Each branch's marking has
// the full firing applied (input arcs, input-gate transforms, case outputs)
// and its impulse vector holds a's impulse rewards evaluated on the
// post-fire marking, exactly as the simulator earns them.
func (ex *explorer) fireBranches(mark []int, a *san.Activity) ([]outcome, error) {
	// Input side, shared by all cases.
	in := &guardedWriter{mark: append([]int(nil), mark...)}
	for _, arc := range a.InputArcs() {
		in.Add(arc.Place, -arc.Mult)
	}
	for _, g := range a.InputGates() {
		if g.Transform != nil {
			if err := runGate(a, g.Name, g.Transform, in); err != nil {
				return nil, err
			}
		}
	}
	if in.err != nil {
		return nil, fmt.Errorf("activity %q: %v", a.Name(), in.err)
	}

	cases := a.Cases()
	if len(cases) == 0 {
		// No cases: the simulator applies no output side.
		imp := make([]float64, ex.nRewards)
		if err := ex.addImpulses(a, markingVec(in.mark), imp); err != nil {
			return nil, err
		}
		return []outcome{{mark: in.mark, prob: 1, imp: imp}}, nil
	}

	probs, err := caseProbs(a, in.mark)
	if err != nil {
		return nil, err
	}

	var branches []outcome
	for ci := range cases {
		p := probs[ci]
		if p <= 0 {
			continue
		}
		w := &guardedWriter{mark: append([]int(nil), in.mark...)}
		c := cases[ci]
		for _, arc := range c.OutputArcs {
			w.Add(arc.Place, arc.Mult)
		}
		for _, og := range c.OutputGates {
			if og.Transform != nil {
				if err := runGate(a, og.Name, og.Transform, w); err != nil {
					return nil, err
				}
			}
		}
		if w.err != nil {
			return nil, fmt.Errorf("activity %q: %v", a.Name(), w.err)
		}
		imp := make([]float64, ex.nRewards)
		if err := ex.addImpulses(a, markingVec(w.mark), imp); err != nil {
			return nil, err
		}
		branches = append(branches, outcome{mark: w.mark, prob: p, imp: imp})
	}
	return branches, nil
}

// caseProbs computes the selection probability of every case of a at the
// post-input marking, replicating the simulator's defensive mass
// normalization (negative probabilities clamped, nil cases sharing the
// remaining mass, draws scaled by the total selectable mass).
func caseProbs(a *san.Activity, mark []int) ([]float64, error) {
	cases := a.Cases()
	if len(cases) == 1 {
		return []float64{1}, nil
	}
	return caseProbsInto(a, markingVec(mark), make([]float64, len(cases)), make([]float64, len(cases)))
}

// caseProbsInto is caseProbs with caller-supplied scratch (the expander
// reuses masses and probs across activations; probs is also the return
// value). Both slices must have length len(a.Cases()) ≥ 2.
func caseProbsInto(a *san.Activity, mark san.MarkingReader, masses, probs []float64) ([]float64, error) {
	cases := a.Cases()
	var explicit float64
	nilCount := 0
	for i, c := range cases {
		if c.Probability == nil {
			nilCount++
			masses[i] = -1 // filled below
			continue
		}
		p, err := evalCaseProb(a, c, mark)
		if err != nil {
			return nil, err
		}
		masses[i] = math.Max(0, p)
		explicit += masses[i]
	}
	remainder := math.Max(0, 1-explicit)
	total := math.Max(1, explicit)
	if nilCount == 0 {
		total = explicit
	}
	clear(probs)
	if total <= 0 {
		// No selectable mass: the simulator's scan falls through to the last
		// case.
		probs[len(cases)-1] = 1
		return probs, nil
	}
	sum := 0.0
	for i := range cases {
		m := masses[i]
		if m < 0 {
			m = remainder / float64(nilCount)
		}
		p := m / total
		probs[i] += p
		sum += p
	}
	// Residual mass (total mass short of the draw range) falls through to
	// the last case in the simulator's scan.
	if sum < 1 {
		probs[len(cases)-1] += 1 - sum
	}
	return probs, nil
}

// evalCaseProb evaluates a case probability with panic recovery.
func evalCaseProb(a *san.Activity, c san.Case, mark san.MarkingReader) (p float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("activity %q: case probability panicked: %v", a.Name(), r)
		}
	}()
	return c.Probability(mark), nil
}

// addImpulses accumulates a's impulse rewards evaluated at the post-fire
// marking into imp.
func (ex *explorer) addImpulses(a *san.Activity, mark san.MarkingReader, imp []float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("activity %q: impulse reward panicked: %v", a.Name(), r)
		}
	}()
	for _, ib := range ex.impulses[a.Index()] {
		imp[ib.rewardIndex] += ib.fn(mark)
	}
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

// runGate runs a gate transform against the guarded writer with panic
// recovery.
func runGate(a *san.Activity, gate string, f san.GateFunc, w *guardedWriter) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("activity %q gate %q: transform panicked: %v", a.Name(), gate, r)
		}
	}()
	f(w)
	return nil
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
