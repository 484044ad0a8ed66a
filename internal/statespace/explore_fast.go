package statespace

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"

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
//
// With exchangeable replicate groups (symmetry.go) the same engine explores
// the symmetric quotient: every marking is interned in canonical form, so a
// state is a class and its marking the class representative. A worker
// expands the representative and then every other member of the class, and
// records whether each member gave the same multiset of (successor class,
// rate, impulse vector) and the same reward rates, bit for bit — the strong
// lumpability condition, checked on every flat state. Members count against
// the state budget and their markings fold into the place bounds. Any
// failure — a member that differs, a refusal, a budget overrun — abandons the
// quotient, and explore reruns the flat exploration. The flat exploration is
// the quotient with no groups: a marking is its own canonical form and every
// class has one member.

// exploreChunkSize is the number of frontier states per parallel expansion
// task.
const exploreChunkSize = 256

// exploreParallelMin is the frontier size below which a level is expanded
// inline: spawning workers for a handful of states costs more than it saves.
const exploreParallelMin = 64

// errNotLumpable abandons a quotient whose member check failed. It never
// reaches a certificate: the flat rerun decides the model's fate.
var errNotLumpable = errors.New("statespace: symmetric quotient is not lumpable")

// timedRef caches per-activity facts the hot loop would otherwise re-derive
// per state: whether the delay is marking-independent (its rate then
// classifies once, here) and whether the activity carries impulse bindings.
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

// memberAct is one activation of a class member: the merge pins its rate
// like a representative's.
type memberAct struct {
	tIdx int32
	rate float64
}

// protoEdge is one successor recorded by a worker: the packed canonical
// marking (a view into the chunk arena), its hash, the total branch
// probability (case times vanishing path), and the impulse vector (nil when
// the firing earns none — impulse-free edges accumulate +0.0 either way).
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

	// Per state: end index into memberActs, and whether the member check
	// failed.
	memberActEnd []int32
	notLumpable  []bool
	memberActs   []memberAct
}

type fastExplorer struct {
	*explorer // shared semantic core: firing and vanishing closure

	timedRefs []timedRef
	par       int
	idx       *markIndex

	// First-seen rate pin per activity index: a different rate in another
	// state without reactivation breaks the CTMC (the clock is not
	// resampled, so the process is not memoryless).
	seenRate   []bool
	pinnedRate []float64

	// sym holds the groups exploration canonicalizes (none for the flat
	// chain); flatStates counts the members of the interned classes.
	sym        *symmetry
	flatStates int
	canonBuf   []int
	symScratch symScratch

	packBuf   []byte
	chunkExps []*expander // per chunk index, reused level to level
}

// explore runs the interned, level-parallel BFS. It assumes the memoryless
// and vanishing-free pre-checks passed; it still re-derives rates per state
// and re-checks stability, because pre-checks at the initial marking cannot
// see marking-dependent behavior. When the model has exchangeable replicate
// groups it explores the symmetric quotient first and falls back to the flat
// chain when the quotient fails for any reason, so refusals, their texts and
// budget behavior are always the flat exploration's.
func explore(cm *san.CompiledModel, opts Options) (*Generator, exploreResult) {
	if sym := findSymmetry(cm); sym != nil {
		if gen, res := newFastExplorer(cm, opts, sym).explore(); gen != nil {
			return gen, res
		}
	}
	return newFastExplorer(cm, opts, &symmetry{}).explore()
}

func newFastExplorer(cm *san.CompiledModel, opts Options, sym *symmetry) *fastExplorer {
	ex := newExplorer(cm, opts)
	model := cm.Model()
	fx := &fastExplorer{
		explorer:   ex,
		par:        opts.Parallelism,
		idx:        newMarkIndex(),
		seenRate:   make([]bool, model.NumActivities()),
		pinnedRate: make([]float64, model.NumActivities()),
		sym:        sym,
		symScratch: newSymScratch(sym),
	}
	initial := cm.InitialMarking()
	fx.timedRefs = make([]timedRef, len(ex.timed))
	for i, a := range ex.timed {
		tr := timedRef{a: a, hasImp: cm.EarnsImpulses(a)}
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
	return fx
}

// explore generates the chain. A quotient exploration returns a nil
// generator on any failure, for the caller to rerun flat.
func (fx *fastExplorer) explore() (*Generator, exploreResult) {
	gen := &Generator{cm: fx.cm}
	res := exploreResult{}

	// Close the initial marking: it may itself be vanishing.
	initOutcomes, err := fx.closeVanishing(fx.cm.InitialMarking(), 1, make([]float64, fx.nRewards))
	if err != nil {
		res.err = err
		return nil, res
	}
	gen.InitialImpulses = make([]float64, fx.nRewards)
	for _, o := range initOutcomes {
		si, ok := fx.intern(o.mark)
		if !ok {
			res.budgetExceeded = true
			return nil, res
		}
		gen.Initial = addAtom(gen.Initial, si, o.prob)
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
	// A quotient whose classes are all singletons is the flat chain, state
	// for state; it carries no symmetry evidence.
	if fx.flatStates > len(fx.states) {
		res.symmetry = &san.SymmetryEvidence{Groups: fx.sym.prefixes(), FlatStates: fx.flatStates}
	}
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
				exp.res.reset(si, si+1)
				exp.expandClass(fx.states[si])
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
// explorer state, so the schedule cannot affect the result. Chunk c of
// every level expands on the same expander, whose buffers the previous
// level's merge is done with.
func (fx *fastExplorer) runLevelParallel(lo, hi, par int) error {
	n := (hi - lo + exploreChunkSize - 1) / exploreChunkSize
	for len(fx.chunkExps) < n {
		fx.chunkExps = append(fx.chunkExps, newExpander(fx))
	}
	results := fx.chunkExps[:n]
	fanout.For(n, par, func(_, c int) {
		clo := lo + c*exploreChunkSize
		chi := min(clo+exploreChunkSize, hi)
		e := results[c]
		e.res.reset(clo, chi)
		for si := clo; si < chi; si++ {
			e.expandClass(fx.states[si])
		}
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

// intern interns an unpacked marking (initial-closure path) in canonical
// form.
func (fx *fastExplorer) intern(mark []int) (int, bool) {
	fx.canonBuf = append(fx.canonBuf[:0], mark...)
	fx.sym.canon(fx.canonBuf, &fx.symScratch)
	fx.packBuf = packMarking(fx.packBuf[:0], fx.canonBuf)
	return fx.internPacked(fx.packBuf, hashBytes(fx.packBuf))
}

// internPacked resolves a packed marking to its state index, assigning the
// next index (and decoding the marking into the state table) on first sight.
// A class counts all its members against the budget and folds them into the
// place maxima. It returns ok=false with the budget flag set when the state
// cap is hit.
func (fx *fastExplorer) internPacked(packed []byte, h uint64) (int, bool) {
	if si, ok := fx.idx.lookup(packed, h); ok {
		return si, true
	}
	mark := unpackMarking(packed, fx.nPlaces)
	members := fx.sym.members(mark, fx.maxStates-fx.flatStates)
	if fx.flatStates+members > fx.maxStates {
		fx.overBudget = true
		return 0, false
	}
	si := fx.idx.insert(packed, h)
	fx.flatStates += members
	fx.states = append(fx.states, mark)
	fx.transitions = append(fx.transitions, nil)
	fx.sym.foldMax(fx.observedMax, mark)
	return si, true
}

// pinRate checks an activation's rate against the activity's first-seen
// rate, pinning it on first sight.
func (fx *fastExplorer) pinRate(a *san.Activity, rate float64) error {
	ai := a.Index()
	if !fx.seenRate[ai] {
		fx.seenRate[ai] = true
		fx.pinnedRate[ai] = rate
		return nil
	}
	if fx.pinnedRate[ai] != rate && !a.Reactivation() {
		return nonMemorylessError(fmt.Sprintf(
			"activity %q: marking-dependent rate (%g vs %g) without reactivation", a.Name(), rate, fx.pinnedRate[ai]))
	}
	return nil
}

// merge commits one chunk: it replays the recorded activations and edges in
// state-index order, performing the order-sensitive work — rate pinning and
// validity, interning, transition assembly, budget stops, and error raising —
// in exactly the sequence a sequential BFS would.
func (fx *fastExplorer) merge(res *chunkOut) error {
	actCursor, edgeCursor, memberCursor := 0, 0, 0
	for k, si := 0, res.lo; si < res.hi; k, si = k+1, si+1 {
		actEnd := int(res.actEnd[k])
		nEdges := 0
		for _, act := range res.acts[actCursor:actEnd] {
			nEdges += int(act.nEdges)
		}
		fx.transitions[si] = slices.Grow(fx.transitions[si], nEdges)
		for ; actCursor < actEnd; actCursor++ {
			act := &res.acts[actCursor]
			tr := &fx.timedRefs[act.tIdx]
			a := tr.a
			if act.rateErr != "" {
				return nonMemorylessError(act.rateErr)
			}
			if err := fx.pinRate(a, act.rate); err != nil {
				return err
			}
			if !validRate(act.rate) {
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
		for end := int(res.memberActEnd[k]); memberCursor < end; memberCursor++ {
			ma := res.memberActs[memberCursor]
			if err := fx.pinRate(fx.timedRefs[ma.tIdx].a, ma.rate); err != nil {
				return err
			}
		}
		if res.notLumpable[k] {
			return errNotLumpable
		}
	}
	return nil
}

func validRate(rate float64) bool {
	return rate > 0 && !math.IsInf(rate, 0) && !math.IsNaN(rate)
}

// expander is one worker's expansion state: the chunk output under
// construction plus reusable scratch (marking copies, case-probability
// buffers, marking readers) so steady-state expansion allocates only on
// interning misses and impulse-carrying edges. It also holds the
// canonicalization and member-check scratch, reused across members and
// classes, so the check allocates nothing per member.
type expander struct {
	fx  *fastExplorer
	res chunkOut
	out *chunkOut // where expandState records: &res, or &member during the check

	inMark  []int
	outMark []int
	probs   []float64

	// The markings handed to model closures: rd to enabling and rate
	// closures, gw to the firing's. Passing a pointer to a long-lived field,
	// not a fresh slice conversion, keeps the interface conversion off the
	// heap.
	rd markingVec
	gw guardedWriter

	// Canonicalization and member-check scratch.
	canon      []int
	symScratch symScratch
	iter       memberIter
	memMark    []int
	member     chunkOut
	memberImp  []float64 // arena for the member's impulse vectors
	repKeys    []edgeKey
	memKeys    []edgeKey
	repRates   []float64
	memRates   []float64
}

func newExpander(fx *fastExplorer) *expander {
	e := &expander{fx: fx, symScratch: newSymScratch(fx.sym), memMark: make([]int, fx.nPlaces)}
	e.out = &e.res
	return e
}

func (c *chunkOut) reset(lo, hi int) {
	c.lo, c.hi = lo, hi
	c.actEnd = c.actEnd[:0]
	c.stopErr = c.stopErr[:0]
	c.acts = c.acts[:0]
	c.edges = c.edges[:0]
	c.arena = c.arena[:0]
	c.memberActEnd = c.memberActEnd[:0]
	c.notLumpable = c.notLumpable[:0]
	c.memberActs = c.memberActs[:0]
}

// expandClass records state mark's expansion and the member check of its
// class.
func (e *expander) expandClass(mark []int) {
	actStart, edgeStart := len(e.res.acts), len(e.res.edges)
	e.expandState(mark)
	ok := e.checkMembers(mark, actStart, edgeStart)
	e.res.notLumpable = append(e.res.notLumpable, !ok)
	e.res.memberActEnd = append(e.res.memberActEnd, int32(len(e.res.memberActs)))
}

// checkMembers expands every member of representative rep's class other
// than rep and reports whether each gave rep's multiset of (successor class,
// rate, impulse vector) and rep's reward rates, bit for bit. Member
// activations are recorded for the merge's rate pinning. A representative
// whose own expansion failed is left to the merge, which raises its error.
// A class with no other member, such as every class of the flat chain,
// passes.
func (e *expander) checkMembers(rep []int, actStart, edgeStart int) bool {
	if !e.iter.start(e.fx.sym, rep) {
		return true
	}
	if e.res.stopErr[len(e.res.stopErr)-1] != nil {
		return true
	}
	for _, act := range e.res.acts[actStart:] {
		if act.rateErr != "" || !validRate(act.rate) {
			return true
		}
	}
	e.repKeys = appendEdgeKeys(e.repKeys[:0], &e.res, actStart, edgeStart)
	var ok bool
	if e.repRates, ok = e.rewardRates(e.repRates[:0], rep); !ok {
		return false
	}
	defer func() { e.out = &e.res }()
	for e.iter.next() {
		e.iter.fill(e.memMark)
		e.member.reset(0, 1)
		e.memberImp = e.memberImp[:0]
		e.out = &e.member
		e.expandState(e.memMark)
		if e.member.stopErr[0] != nil {
			return false
		}
		for _, act := range e.member.acts {
			if act.rateErr != "" || !validRate(act.rate) {
				return false
			}
			e.res.memberActs = append(e.res.memberActs, memberAct{tIdx: act.tIdx, rate: act.rate})
		}
		e.memKeys = appendEdgeKeys(e.memKeys[:0], &e.member, 0, 0)
		if !sameEdgeKeys(e.repKeys, e.memKeys) {
			return false
		}
		if e.memRates, ok = e.rewardRates(e.memRates[:0], e.memMark); !ok || !slices.EqualFunc(e.repRates, e.memRates, sameBits) {
			return false
		}
	}
	return true
}

// appendEdgeKeys appends the sorted edge keys of the activations recorded in
// out from actStart (their edges starting at edgeStart).
func appendEdgeKeys(keys []edgeKey, out *chunkOut, actStart, edgeStart int) []edgeKey {
	ei := edgeStart
	for _, act := range out.acts[actStart:] {
		for n := int32(0); n < act.nEdges; n++ {
			pe := &out.edges[ei]
			ei++
			keys = append(keys, edgeKey{
				h: pe.hash, b: out.arena[pe.off : pe.off+pe.n],
				rate: act.rate * pe.prob, imp: pe.imp,
			})
		}
	}
	sortEdgeKeys(keys)
	return keys
}

// rewardRates appends every rate reward's value at mark.
func (e *expander) rewardRates(dst []float64, mark []int) ([]float64, bool) {
	e.rd = mark
	for _, rv := range e.fx.cm.Rewards() {
		if rv.Rate == nil {
			continue
		}
		r, err := evalRewardRate(rv, &e.rd)
		if err != nil {
			return dst, false
		}
		dst = append(dst, r)
	}
	return dst, true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// expandState records the proto activations and edges of one marking into
// e.out. Errors that halt a state's expansion are recorded positionally
// (stopErr) rather than raised — the merge raises them in state order.
func (e *expander) expandState(mark []int) {
	fx := e.fx
	out := e.out
	e.rd = mark
	var stopErr error
	for ti := range fx.timedRefs {
		tr := &fx.timedRefs[ti]
		enabled, err := activityEnabled(tr.a, &e.rd)
		if err != nil {
			stopErr = err
			break
		}
		if !enabled {
			continue
		}
		rate, rateErr := tr.rate, tr.rateErr
		if !tr.fixed {
			if r, err := activityRate(tr.a, &e.rd); err != nil {
				rate, rateErr = 0, err.Error()
			} else {
				rate, rateErr = r, ""
			}
		}
		out.acts = append(out.acts, protoAct{tIdx: int32(ti), rate: rate, rateErr: rateErr})
		if rateErr != "" {
			break
		}
		if !validRate(rate) {
			// Recorded with no edges: the merge stops at this activation
			// with the invalid-rate error, before any firing.
			break
		}
		nEdges, err := e.fire(mark, tr)
		if err != nil {
			stopErr = err
			break
		}
		out.acts[len(out.acts)-1].nEdges = nEdges
	}
	out.actEnd = append(out.actEnd, int32(len(out.acts)))
	out.stopErr = append(out.stopErr, stopErr)
}

// fire records the successor edges of firing tr.a in mark. Models with
// instantaneous activities route through fireBranches and the vanishing
// closure (their read-only helpers are safe under concurrent workers); the
// instantaneous-free hot path fires on reusable scratch markings instead.
// Both enumerate the cases from caseProbs.
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

	// Input side, shared by all cases, on a scratch copy of the marking.
	e.inMark = append(e.inMark[:0], mark...)
	e.gw = guardedWriter{mark: e.inMark}
	if err := fireInput(a, &e.gw); err != nil {
		return 0, err
	}
	cases := a.Cases()
	if len(cases) == 0 {
		// No cases: the simulator applies no output side.
		imp, err := e.impulses(tr)
		if err != nil {
			return 0, err
		}
		e.pushEdge(e.inMark, 1, imp)
		return 1, nil
	}
	if cap(e.probs) < len(cases) {
		e.probs = make([]float64, len(cases))
	}
	probs, err := caseProbs(a, &e.gw, e.probs[:len(cases)])
	if err != nil {
		return 0, err
	}
	var n int32
	for ci, p := range probs {
		if p <= 0 {
			continue
		}
		e.outMark = append(e.outMark[:0], e.inMark...)
		e.gw = guardedWriter{mark: e.outMark}
		if err := fireOutput(a, &cases[ci], &e.gw); err != nil {
			return 0, err
		}
		imp, err := e.impulses(tr)
		if err != nil {
			return 0, err
		}
		e.pushEdge(e.outMark, p, imp)
		n++
	}
	return n, nil
}

// impulses evaluates tr.a's impulse rewards on the post-fire marking in
// e.gw, or returns nil when the activity has no bindings (a nil impulse
// vector and an all-zero one contribute identically to every reward
// integral). During the member check the vector is a view into the member's
// impulse arena; a view taken before the arena grows keeps the old array,
// which still holds it.
func (e *expander) impulses(tr *timedRef) ([]float64, error) {
	if !tr.hasImp {
		return nil, nil
	}
	n := e.fx.nRewards
	var imp []float64
	if e.out == &e.member {
		start := len(e.memberImp)
		e.memberImp = append(e.memberImp, make([]float64, n)...)
		imp = e.memberImp[start : start+n]
	} else {
		imp = make([]float64, n)
	}
	if err := addImpulses(e.fx.cm, tr.a, &e.gw, imp); err != nil {
		return nil, err
	}
	return imp, nil
}

// pushEdge packs the successor marking, in canonical form, into the output
// arena and records the proto edge.
func (e *expander) pushEdge(mark []int, prob float64, imp []float64) {
	e.canon = append(e.canon[:0], mark...)
	e.fx.sym.canon(e.canon, &e.symScratch)
	out := e.out
	off := int32(len(out.arena))
	out.arena = packMarking(out.arena, e.canon)
	packed := out.arena[off:]
	out.edges = append(out.edges, protoEdge{
		off: off, n: int32(len(packed)), hash: hashBytes(packed), prob: prob, imp: imp,
	})
}
