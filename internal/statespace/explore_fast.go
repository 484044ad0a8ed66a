package statespace

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/fanout"
	"repro/internal/san"
)

// This file is the exploration engine: a breadth-first search with
// on-the-fly vanishing elimination (explore.go), built around an interned
// packed-marking index (intern.go) and level-parallel frontier expansion.
//
// Expanding a state is a pure function of its marking — enabling predicates,
// rates, gate transforms, case probabilities, and impulse rewards read only
// the marking and the immutable compiled model — so a BFS level can be
// expanded by any number of workers. Determinism is preserved by separating
// expansion from commitment: workers only record *proto* activations and
// edges (packed successor markings, probabilities, impulse vectors) into
// per-chunk buffers; a single merge pass then walks the chunks in state-index
// order and performs everything order-sensitive — rate-consistency checks,
// state interning (which assigns indices), transition assembly, budget
// accounting, and error selection. The merge sees exactly the event sequence
// a sequential BFS produces, so state numbering, transition order, refusal
// text, and budget behavior are identical at every parallelism, including
// parallelism 1.
//
// The chunk size is a fixed constant, not derived from the worker count, so
// chunk boundaries never depend on scheduling.

// exploreChunkSize is the number of frontier states per parallel expansion
// task.
const exploreChunkSize = 256

// exploreParallelMin is the frontier size below which a level is expanded
// inline: spawning workers for a handful of states costs more than it saves.
const exploreParallelMin = 64

// timedRef caches per-activity facts the hot loop would otherwise re-derive
// per state: whether the delay is marking-independent (its rate then
// classifies once, here), whether the activity carries impulse bindings, and
// whether case selection is trivial.
type timedRef struct {
	a       *san.Activity
	hasImp  bool
	fixed   bool    // marking-independent delay: rate classified once
	rate    float64 // valid when fixed and rateErr == ""
	rateErr string  // non-empty: classification failure, raised when first enabled
}

// protoAct is one enabled activity recorded by a worker: the merge re-checks
// rate consistency and validity in state order before committing its edges.
type protoAct struct {
	tIdx    int32 // index into fastExplorer.timedRefs
	nEdges  int32
	rate    float64
	rateErr string
}

// protoEdge is one successor recorded by a worker: the packed marking (a view
// into the chunk arena), its hash, the total branch probability (case times
// vanishing path), and the impulse vector (nil when the firing earns none —
// impulse-free edges accumulate +0.0 either way).
type protoEdge struct {
	off, n int32
	hash   uint64
	prob   float64
	imp    []float64
}

// chunkOut is the expansion record of one chunk of frontier states.
type chunkOut struct {
	lo, hi  int
	actEnd  []int32 // per state: end index into acts (start = previous end)
	stopErr []error // per state: error that halted its expansion, if any
	acts    []protoAct
	edges   []protoEdge
	arena   []byte
}

type fastExplorer struct {
	*explorer // shared semantic core: vanishing closure, impulse bindings

	timedRefs []timedRef
	par       int
	idx       *markIndex

	// First-seen rate pin per activity index: a different rate in another
	// state without reactivation breaks the CTMC (the clock is not
	// resampled, so the process is not memoryless).
	seenRate   []bool
	pinnedRate []float64

	packBuf []byte
}

// explore runs the interned, level-parallel BFS. It assumes the memoryless
// and vanishing-free pre-checks passed; it still re-derives rates per state
// and re-checks stability, because pre-checks at the initial marking cannot
// see marking-dependent behavior.
func explore(cm *san.CompiledModel, opts Options) (*Generator, exploreResult) {
	ex := newExplorer(cm, opts)
	model := cm.Model()
	fx := &fastExplorer{
		explorer:   ex,
		par:        opts.Parallelism,
		idx:        newMarkIndex(),
		seenRate:   make([]bool, model.NumActivities()),
		pinnedRate: make([]float64, model.NumActivities()),
	}
	initial := cm.InitialMarking()
	fx.timedRefs = make([]timedRef, len(ex.timed))
	for i, a := range ex.timed {
		tr := timedRef{a: a, hasImp: len(ex.impulses[a.Index()]) > 0}
		if a.FixedDelay() != nil {
			tr.fixed = true
			if r, err := activityRate(a, markingVec(initial)); err != nil {
				tr.rateErr = err.Error()
			} else {
				tr.rate = r
			}
		}
		fx.timedRefs[i] = tr
	}

	gen := &Generator{cm: cm}
	res := exploreResult{}

	// Close the initial marking: it may itself be vanishing.
	initOutcomes, err := ex.closeVanishing(initial, 1, make([]float64, ex.nRewards))
	if err != nil {
		res.err = err
		return nil, res
	}
	gen.InitialImpulses = make([]float64, ex.nRewards)
	for _, o := range initOutcomes {
		si, ok := fx.intern(o.mark)
		if !ok {
			res.budgetExceeded = true
			return nil, res
		}
		gen.Initial = append(gen.Initial, StateProb{State: si, Prob: o.prob})
		for ri := range o.imp {
			gen.InitialImpulses[ri] += o.prob * o.imp[ri]
		}
	}

	if err := fx.run(); err != nil {
		if nm, isNM := err.(nonMemorylessError); isNM {
			res.nonMemoryless = string(nm)
		} else {
			res.err = err
		}
		return nil, res
	}
	if fx.overBudget {
		res.budgetExceeded = true
		return nil, res
	}

	gen.States = fx.states
	gen.Transitions = fx.transitions
	res.observedMax = fx.observedMax
	return gen, res
}

// run drives the level-synchronized BFS: each pass expands the states
// appended since the previous pass, in parallel when the frontier is large
// enough, and commits the results in state-index order.
func (fx *fastExplorer) run() error {
	par := fx.par
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	exp := newExpander(fx)
	for lo := 0; lo < len(fx.states); {
		hi := len(fx.states)
		if par > 1 && hi-lo >= exploreParallelMin {
			if err := fx.runLevelParallel(lo, hi, par); err != nil {
				return err
			}
		} else {
			for si := lo; si < hi; si++ {
				exp.reset(si, si+1)
				exp.expandState(fx.states[si])
				if err := fx.merge(&exp.res); err != nil {
					return err
				}
				if fx.overBudget {
					return nil
				}
			}
		}
		if fx.overBudget {
			return nil
		}
		lo = hi
	}
	return nil
}

// runLevelParallel expands frontier states [lo,hi) in fixed-size chunks on
// par workers, then merges the chunks in order. Workers never touch shared
// explorer state, so the schedule cannot affect the result.
func (fx *fastExplorer) runLevelParallel(lo, hi, par int) error {
	results := make([]*expander, (hi-lo+exploreChunkSize-1)/exploreChunkSize)
	fanout.For(len(results), par, func(_, c int) {
		clo := lo + c*exploreChunkSize
		chi := min(clo+exploreChunkSize, hi)
		e := newExpander(fx)
		e.reset(clo, chi)
		for si := clo; si < chi; si++ {
			e.expandState(fx.states[si])
		}
		results[c] = e
	})
	for _, e := range results {
		if err := fx.merge(&e.res); err != nil {
			return err
		}
		if fx.overBudget {
			return nil
		}
	}
	return nil
}

// intern interns an unpacked marking (initial-closure path).
func (fx *fastExplorer) intern(mark []int) (int, bool) {
	fx.packBuf = packMarking(fx.packBuf[:0], mark)
	return fx.internPacked(fx.packBuf, hashBytes(fx.packBuf))
}

// internPacked resolves a packed marking to its state index, assigning the
// next index (and decoding the marking into the state table) on first sight.
// It returns ok=false with the budget flag set when the state cap is hit.
func (fx *fastExplorer) internPacked(packed []byte, h uint64) (int, bool) {
	if si, ok := fx.idx.lookup(packed, h); ok {
		return si, true
	}
	if len(fx.states) >= fx.maxStates {
		fx.overBudget = true
		return 0, false
	}
	si := fx.idx.insert(packed, h)
	mark := unpackMarking(packed, fx.nPlaces)
	fx.states = append(fx.states, mark)
	fx.transitions = append(fx.transitions, nil)
	for pi, v := range mark {
		if v > fx.observedMax[pi] {
			fx.observedMax[pi] = v
		}
	}
	return si, true
}

// merge commits one chunk: it replays the recorded activations and edges in
// state-index order, performing the order-sensitive work — rate pinning and
// validity, interning, transition assembly, budget stops, and error raising —
// in exactly the sequence a sequential BFS would.
func (fx *fastExplorer) merge(res *chunkOut) error {
	actCursor, edgeCursor := 0, 0
	for k, si := 0, res.lo; si < res.hi; k, si = k+1, si+1 {
		for end := int(res.actEnd[k]); actCursor < end; actCursor++ {
			act := &res.acts[actCursor]
			tr := &fx.timedRefs[act.tIdx]
			a := tr.a
			if act.rateErr != "" {
				return nonMemorylessError(act.rateErr)
			}
			ai := a.Index()
			if fx.seenRate[ai] {
				if fx.pinnedRate[ai] != act.rate && !a.Reactivation() {
					return nonMemorylessError(fmt.Sprintf(
						"activity %q: marking-dependent rate (%g vs %g) without reactivation", a.Name(), act.rate, fx.pinnedRate[ai]))
				}
			} else {
				fx.seenRate[ai] = true
				fx.pinnedRate[ai] = act.rate
			}
			if act.rate <= 0 || math.IsInf(act.rate, 0) || math.IsNaN(act.rate) {
				return fmt.Errorf("activity %q: rate %g at state %d", a.Name(), act.rate, si)
			}
			for n := int32(0); n < act.nEdges; n++ {
				pe := &res.edges[edgeCursor]
				edgeCursor++
				ti, ok := fx.internPacked(res.arena[pe.off:pe.off+pe.n], pe.hash)
				if !ok {
					return nil // budget flag set; caller stops
				}
				fx.transitions[si] = append(fx.transitions[si], Transition{
					From: si, To: ti, Activity: a.Name(),
					Rate:     act.rate * pe.prob,
					Impulses: pe.imp,
				})
			}
		}
		if err := res.stopErr[k]; err != nil {
			return err
		}
	}
	return nil
}

// expander is one worker's expansion state: the chunk output under
// construction plus reusable scratch (marking copies, case-probability
// buffers) so steady-state expansion allocates only on interning misses and
// impulse-carrying edges.
type expander struct {
	fx  *fastExplorer
	res chunkOut

	inMark  []int
	outMark []int
	gw      guardedWriter
	masses  []float64
	probs   []float64
}

func newExpander(fx *fastExplorer) *expander {
	return &expander{fx: fx}
}

func (e *expander) reset(lo, hi int) {
	e.res.lo, e.res.hi = lo, hi
	e.res.actEnd = e.res.actEnd[:0]
	e.res.stopErr = e.res.stopErr[:0]
	e.res.acts = e.res.acts[:0]
	e.res.edges = e.res.edges[:0]
	e.res.arena = e.res.arena[:0]
}

// expandState records the proto activations and edges of one marking. Errors
// that halt a state's expansion are recorded positionally (stopErr) rather
// than raised — the merge raises them in state order.
func (e *expander) expandState(mark []int) {
	fx := e.fx
	var stopErr error
	for ti := range fx.timedRefs {
		tr := &fx.timedRefs[ti]
		enabled, err := activityEnabled(tr.a, markingVec(mark))
		if err != nil {
			stopErr = err
			break
		}
		if !enabled {
			continue
		}
		rate, rateErr := tr.rate, tr.rateErr
		if !tr.fixed {
			if r, err := activityRate(tr.a, markingVec(mark)); err != nil {
				rate, rateErr = 0, err.Error()
			} else {
				rate, rateErr = r, ""
			}
		}
		e.res.acts = append(e.res.acts, protoAct{tIdx: int32(ti), rate: rate, rateErr: rateErr})
		if rateErr != "" {
			break
		}
		if rate <= 0 || math.IsInf(rate, 0) || math.IsNaN(rate) {
			// Recorded with no edges: the merge stops at this activation
			// with the invalid-rate error, before any firing.
			break
		}
		nEdges, err := e.fire(mark, tr)
		if err != nil {
			stopErr = err
			break
		}
		e.res.acts[len(e.res.acts)-1].nEdges = nEdges
	}
	e.res.actEnd = append(e.res.actEnd, int32(len(e.res.acts)))
	e.res.stopErr = append(e.res.stopErr, stopErr)
}

// fire records the successor edges of firing tr.a in mark. Models with
// instantaneous activities route through fireBranches and the vanishing
// closure (their read-only helpers are safe under concurrent workers); the
// instantaneous-free hot path fires on reusable scratch markings instead.
func (e *expander) fire(mark []int, tr *timedRef) (int32, error) {
	a := tr.a
	if len(e.fx.inst) > 0 {
		branches, err := e.fx.explorer.fireBranches(mark, a)
		if err != nil {
			return 0, err
		}
		var n int32
		for _, b := range branches {
			outs, err := e.fx.explorer.closeVanishing(b.mark, b.prob, b.imp)
			if err != nil {
				return 0, err
			}
			for _, o := range outs {
				e.pushEdge(o.mark, o.prob, o.imp)
				n++
			}
		}
		return n, nil
	}

	// Input side, shared by all cases: arcs then gate transforms on a
	// scratch copy of the marking.
	e.inMark = append(e.inMark[:0], mark...)
	e.gw = guardedWriter{mark: e.inMark}
	for _, arc := range a.InputArcs() {
		e.gw.Add(arc.Place, -arc.Mult)
	}
	for _, g := range a.InputGates() {
		if g.Transform != nil {
			if err := runGate(a, g.Name, g.Transform, &e.gw); err != nil {
				return 0, err
			}
		}
	}
	if e.gw.err != nil {
		return 0, fmt.Errorf("activity %q: %v", a.Name(), e.gw.err)
	}

	cases := a.Cases()
	if len(cases) == 0 {
		// No cases: the simulator applies no output side.
		imp, err := e.impulses(tr, e.inMark)
		if err != nil {
			return 0, err
		}
		e.pushEdge(e.inMark, 1, imp)
		return 1, nil
	}
	if len(cases) == 1 {
		return e.fireCase(a, tr, cases[0], 1)
	}
	if cap(e.masses) < len(cases) {
		e.masses = make([]float64, len(cases))
		e.probs = make([]float64, len(cases))
	}
	probs, err := caseProbsInto(a, e.inMark, e.masses[:len(cases)], e.probs[:len(cases)])
	if err != nil {
		return 0, err
	}
	var n int32
	for ci := range cases {
		if probs[ci] <= 0 {
			continue
		}
		k, err := e.fireCase(a, tr, cases[ci], probs[ci])
		if err != nil {
			return 0, err
		}
		n += k
	}
	return n, nil
}

// fireCase applies one probabilistic case's output side on scratch and
// records the edge.
func (e *expander) fireCase(a *san.Activity, tr *timedRef, c san.Case, p float64) (int32, error) {
	e.outMark = append(e.outMark[:0], e.inMark...)
	e.gw = guardedWriter{mark: e.outMark}
	for _, arc := range c.OutputArcs {
		e.gw.Add(arc.Place, arc.Mult)
	}
	for _, og := range c.OutputGates {
		if og.Transform != nil {
			if err := runGate(a, og.Name, og.Transform, &e.gw); err != nil {
				return 0, err
			}
		}
	}
	if e.gw.err != nil {
		return 0, fmt.Errorf("activity %q: %v", a.Name(), e.gw.err)
	}
	imp, err := e.impulses(tr, e.outMark)
	if err != nil {
		return 0, err
	}
	e.pushEdge(e.outMark, p, imp)
	return 1, nil
}

// impulses evaluates tr.a's impulse rewards on the post-fire marking, or
// returns nil when the activity has no bindings (a nil impulse vector and an
// all-zero one contribute identically to every reward integral).
func (e *expander) impulses(tr *timedRef, mark []int) ([]float64, error) {
	if !tr.hasImp {
		return nil, nil
	}
	imp := make([]float64, e.fx.nRewards)
	if err := e.fx.explorer.addImpulses(tr.a, mark, imp); err != nil {
		return nil, err
	}
	return imp, nil
}

// pushEdge packs the successor marking into the chunk arena and records the
// proto edge.
func (e *expander) pushEdge(mark []int, prob float64, imp []float64) {
	off := int32(len(e.res.arena))
	e.res.arena = packMarking(e.res.arena, mark)
	packed := e.res.arena[off:]
	e.res.edges = append(e.res.edges, protoEdge{
		off: off, n: int32(len(packed)), hash: hashBytes(packed), prob: prob, imp: imp,
	})
}
