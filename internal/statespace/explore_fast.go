package statespace

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/san"
)

// This file is the exploration engine: a breadth-first search with
// on-the-fly vanishing elimination (explore.go), built around an interned
// packed-marking index (intern.go). It runs on its caller's goroutine; the
// sweep's point fan-out is the only worker pool (docs/statespace.md,
// "Performance").
//
// States are expanded and committed one at a time, in index order. Expanding
// a state only records proto activations and edges (packed successor
// markings, probabilities, impulse vector ids); the merge then performs
// everything order-sensitive — rate-consistency checks, state interning
// (which assigns indices), edge assembly, budget accounting, and error
// selection — in exactly the sequence the reference BFS produces, so state
// numbering, edge order, refusal text, and budget behavior are the
// reference explorer's. A state's marking lives only in the packed index
// and is decoded into scratch to be expanded, and the chain's edges go
// straight into the generator's compact storage (chain.go).
//
// With exchangeable replicate groups (symmetry.go) the same engine explores
// the symmetric quotient: every marking is interned in canonical form, so a
// state is a class and its marking the class representative. The explorer
// expands the representative and then every other member of the class, and
// records whether each member gave the same multiset of (successor class,
// rate, impulse vector) and the same reward rates, bit for bit — the strong
// lumpability condition, checked on every flat state. The record is what
// makes this possible: members are compared with the representative before
// any successor is interned. Members count against the state budget and
// their markings fold into the place bounds. Any failure — a member that
// differs, a refusal, a budget overrun — abandons the quotient, and explore
// reruns the flat exploration. The flat exploration is the quotient with no
// groups: a marking is its own canonical form and every class has one
// member.

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

// protoAct is one enabled activity of an expansion: the merge re-checks
// rate consistency and validity before committing its edges.
type protoAct struct {
	tIdx    int32 // index into explorer.timedRefs
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

// protoEdge is one successor of an expansion: the packed canonical marking
// (a view into the record's arena), its hash, the total branch probability
// (case times vanishing path), and the interned impulse vector's id.
type protoEdge struct {
	off, n int32
	imp    int32
	hash   uint64
	prob   float64
}

// expansion is the record of one state's expansion: its activations and
// their edges in firing order, the error that halted it, if any, and its
// class's member check.
type expansion struct {
	acts    []protoAct
	edges   []protoEdge
	arena   []byte
	stopErr error

	memberActs  []memberAct
	notLumpable bool
}

func (x *expansion) reset() {
	x.acts = x.acts[:0]
	x.edges = x.edges[:0]
	x.arena = x.arena[:0]
	x.stopErr = nil
	x.memberActs = x.memberActs[:0]
	x.notLumpable = false
}

// explorer generates one chain: the semantic core that fires activities and
// closes vanishing markings (explore.go), the chain under construction, and
// the expansion scratch, reused state to state so steady-state expansion
// allocates only when the index, the edge storage or the impulse table
// grows.
type explorer struct {
	cm        *san.CompiledModel
	inst      []*san.Activity
	timedRefs []timedRef
	nPlaces   int
	nRewards  int
	maxStates int

	idx         *markIndex
	edges       edgeStore
	imps        impulseTable
	observedMax []int
	overBudget  bool

	// changes joins the places each committed edge changes together, and
	// the rewards the edge earns an impulse of with them: the partition the
	// projections start from (project.go). Nil with fewer than two rewards,
	// where there is nothing to partition.
	changes unionFind

	// First-seen rate pin per activity index: a different rate in another
	// state without reactivation breaks the CTMC (the clock is not
	// resampled, so the process is not memoryless).
	seenRate   []bool
	pinnedRate []float64

	// sym holds the groups exploration canonicalizes (none for the flat
	// chain); flatStates counts the members of the interned classes.
	sym        *symmetry
	flatStates int

	// res records the state being expanded and member one of its class's
	// members during the check; out is the record expandState writes.
	res, member expansion
	out         *expansion

	cur     []int // the marking of the state being expanded
	fresh   []int // a newly interned marking
	inMark  []int
	outMark []int
	probs   []float64
	impBuf  []float64

	// The markings handed to model closures: rd to enabling and rate
	// closures, gw to the firing's. Passing a pointer to a long-lived field,
	// not a fresh slice conversion, keeps the interface conversion off the
	// heap.
	rd markingVec
	gw guardedWriter

	// Canonicalization and member-check scratch, reused across members and
	// classes, so the check allocates nothing per member.
	canon      []int
	packBuf    []byte
	symScratch symScratch
	iter       memberIter
	memMark    []int
	repKeys    []edgeKey
	memKeys    []edgeKey
	repRates   []float64
	memRates   []float64
}

// explore runs the interned BFS. It assumes the memoryless and
// vanishing-free pre-checks passed; it still re-derives rates per state and
// re-checks stability, because pre-checks at the initial marking cannot see
// marking-dependent behavior. When the model has exchangeable replicate
// groups it explores the symmetric quotient first and falls back to the flat
// chain when the quotient fails for any reason, so refusals, their texts and
// budget behavior are always the flat exploration's.
func explore(cm *san.CompiledModel, opts Options) (*Generator, exploreResult) {
	if sym := findSymmetry(cm); sym != nil {
		if gen, res := newExplorer(cm, opts, sym).explore(); gen != nil {
			return gen, res
		}
	}
	return newExplorer(cm, opts, &symmetry{}).explore()
}

func newExplorer(cm *san.CompiledModel, opts Options, sym *symmetry) *explorer {
	model := cm.Model()
	nP, nR := model.NumPlaces(), len(cm.Rewards())
	ex := &explorer{
		cm:          cm,
		inst:        cm.Instantaneous(),
		nPlaces:     nP,
		nRewards:    nR,
		maxStates:   opts.MaxStates,
		idx:         newMarkIndex(),
		imps:        newImpulseTable(),
		observedMax: make([]int, nP),
		seenRate:    make([]bool, model.NumActivities()),
		pinnedRate:  make([]float64, model.NumActivities()),
		sym:         sym,
		symScratch:  newSymScratch(sym),
		cur:         make([]int, nP),
		fresh:       make([]int, nP),
		memMark:     make([]int, nP),
		impBuf:      make([]float64, nR),
	}
	if nR >= 2 {
		ex.changes = newUnionFind(nP + nR)
	}
	ex.out = &ex.res
	initial := markingVec(cm.InitialMarking())
	for _, a := range model.Activities() {
		if a.Kind() != san.Timed {
			continue
		}
		tr := timedRef{a: a, hasImp: cm.EarnsImpulses(a)}
		if a.FixedDelay() != nil {
			tr.fixed = true
			if r, err := activityRate(a, initial); err != nil {
				tr.rateErr = err.Error()
			} else {
				tr.rate = r
			}
		}
		ex.timedRefs = append(ex.timedRefs, tr)
	}
	return ex
}

// explore generates the chain. A quotient exploration returns a nil
// generator on any failure, for the caller to rerun flat.
func (ex *explorer) explore() (*Generator, exploreResult) {
	gen := &Generator{cm: ex.cm}
	res := exploreResult{}

	// Close the initial marking: it may itself be vanishing.
	initOutcomes, err := ex.closeVanishing(ex.cm.InitialMarking(), 1, make([]float64, ex.nRewards))
	if err != nil {
		res.err = err
		return nil, res
	}
	gen.InitialImpulses = make([]float64, ex.nRewards)
	for _, o := range initOutcomes {
		si, ok := ex.intern(o.mark)
		if !ok {
			res.budgetExceeded = true
			return nil, res
		}
		gen.Initial = addAtom(gen.Initial, si, o.prob)
		for ri := range o.imp {
			gen.InitialImpulses[ri] += o.prob * o.imp[ri]
		}
	}

	if err := ex.run(); err != nil {
		if nm, isNM := err.(nonMemorylessError); isNM {
			res.nonMemoryless = string(nm)
		} else {
			res.err = err
		}
		return nil, res
	}
	if ex.overBudget {
		res.budgetExceeded = true
		return nil, res
	}

	ex.finish(gen, &res)
	// A quotient whose classes are all singletons is the flat chain, state
	// for state; it carries no symmetry evidence.
	if ex.flatStates > len(gen.States) {
		res.symmetry = &san.SymmetryEvidence{Groups: ex.sym.prefixes(), FlatStates: ex.flatStates}
	}
	return gen, res
}

// run expands each state, checks its class's members, and commits it, in
// index order, the states appended by each merge included, until every
// state is committed, an error is raised, or the budget runs out.
func (ex *explorer) run() error {
	for si := 0; si < ex.idx.len(); si++ {
		mark := unpackMarking(ex.idx.packedOf(si), ex.cur)
		ex.res.reset()
		ex.expandState(mark)
		ex.res.notLumpable = !ex.checkMembers(mark)
		if err := ex.merge(si); err != nil {
			return err
		}
		if ex.overBudget {
			return nil
		}
	}
	return nil
}

// finish hands the explored chain to gen: the packed markings, the edges
// and the impulse vectors they name, and the exploration's place partition
// to res.
func (ex *explorer) finish(gen *Generator, res *exploreResult) {
	ex.edges.finish()
	gen.arena = ex.idx.arena
	gen.States = ex.idx.views()
	gen.blocks, gen.ends = ex.edges.blocks, ex.edges.ends
	gen.impulses = ex.imps.vecs
	res.observedMax = ex.observedMax
	res.changes = ex.changes
}

// noteChanges joins the places the edge from→to changes, and the rewards
// its impulse vector imp earns with the first of them; an edge that changes
// no place joins nothing.
func (ex *explorer) noteChanges(from, to []int, imp int32) {
	if ex.changes == nil {
		return
	}
	first := -1
	for p := range from {
		if from[p] == to[p] {
			continue
		}
		if first < 0 {
			first = p
		} else {
			ex.changes.union(first, p)
		}
	}
	if first < 0 {
		return
	}
	for ri, v := range ex.imps.vecs[imp] {
		if v != 0 {
			ex.changes.union(ex.nPlaces+ri, first)
		}
	}
}

// intern interns an unpacked marking (initial-closure path) in canonical
// form.
func (ex *explorer) intern(mark []int) (int, bool) {
	ex.canon = append(ex.canon[:0], mark...)
	ex.sym.canon(ex.canon, &ex.symScratch)
	ex.packBuf = packMarking(ex.packBuf[:0], ex.canon)
	return ex.internPacked(ex.packBuf, hashBytes(ex.packBuf))
}

// internPacked resolves a packed marking to its state index, assigning the
// next index on first sight. A class counts all its members against the
// budget and folds them into the place maxima. It returns ok=false with the
// budget flag set when the state cap is hit.
func (ex *explorer) internPacked(packed []byte, h uint64) (int, bool) {
	if si, ok := ex.idx.lookup(packed, h); ok {
		return si, true
	}
	mark := unpackMarking(packed, ex.fresh)
	members := ex.sym.members(mark, ex.maxStates-ex.flatStates)
	if ex.flatStates+members > ex.maxStates {
		ex.overBudget = true
		return 0, false
	}
	si := ex.idx.insert(packed, h)
	ex.flatStates += members
	ex.sym.foldMax(ex.observedMax, mark)
	return si, true
}

// pinRate checks an activation's rate against the activity's first-seen
// rate, pinning it on first sight.
func (ex *explorer) pinRate(a *san.Activity, rate float64) error {
	ai := a.Index()
	if !ex.seenRate[ai] {
		ex.seenRate[ai] = true
		ex.pinnedRate[ai] = rate
		return nil
	}
	if ex.pinnedRate[ai] != rate && !a.Reactivation() {
		return nonMemorylessError(fmt.Sprintf(
			"activity %q: marking-dependent rate (%g vs %g) without reactivation", a.Name(), rate, ex.pinnedRate[ai]))
	}
	return nil
}

// merge commits state si's expansion record: it replays the recorded
// activations and edges, performing the order-sensitive work — rate pinning
// and validity, interning, edge assembly, budget stops, and error raising —
// in exactly the sequence the reference BFS would.
func (ex *explorer) merge(si int) error {
	res := &ex.res
	edges := res.edges
	for i := range res.acts {
		act := &res.acts[i]
		a := ex.timedRefs[act.tIdx].a
		if act.rateErr != "" {
			return nonMemorylessError(act.rateErr)
		}
		if err := ex.pinRate(a, act.rate); err != nil {
			return err
		}
		if !validRate(act.rate) {
			return fmt.Errorf("activity %q: rate %g at state %d", a.Name(), act.rate, si)
		}
		for _, pe := range edges[:act.nEdges] {
			ti, ok := ex.internPacked(res.arena[pe.off:pe.off+pe.n], pe.hash)
			if !ok {
				return nil // budget flag set; caller stops
			}
			ex.edges.add(edge{to: int32(ti), imp: pe.imp, rate: act.rate * pe.prob})
		}
		edges = edges[act.nEdges:]
	}
	ex.edges.endState()
	if res.stopErr != nil {
		return res.stopErr
	}
	for _, ma := range res.memberActs {
		if err := ex.pinRate(ex.timedRefs[ma.tIdx].a, ma.rate); err != nil {
			return err
		}
	}
	if res.notLumpable {
		return errNotLumpable
	}
	return nil
}

func validRate(rate float64) bool {
	return rate > 0 && !math.IsInf(rate, 0) && !math.IsNaN(rate)
}

// checkMembers expands every member of representative rep's class other
// than rep and reports whether each gave rep's multiset of (successor class,
// rate, impulse vector id) and rep's reward rates, bit for bit: ids are
// interned by bits, so equal ids are equal vectors. Member
// activations are recorded for the merge's rate pinning. A representative
// whose own expansion failed is left to the merge, which raises its error.
// A class with no other member, such as every class of the flat chain,
// passes.
func (ex *explorer) checkMembers(rep []int) bool {
	if !ex.iter.start(ex.sym, rep) {
		return true
	}
	if ex.res.stopErr != nil {
		return true
	}
	for _, act := range ex.res.acts {
		if act.rateErr != "" || !validRate(act.rate) {
			return true
		}
	}
	ex.repKeys = appendEdgeKeys(ex.repKeys[:0], &ex.res)
	var ok bool
	if ex.repRates, ok = ex.rewardRates(ex.repRates[:0], rep); !ok {
		return false
	}
	defer func() { ex.out = &ex.res }()
	for ex.iter.next() {
		ex.iter.fill(ex.memMark)
		ex.member.reset()
		ex.out = &ex.member
		ex.expandState(ex.memMark)
		if ex.member.stopErr != nil {
			return false
		}
		for _, act := range ex.member.acts {
			if act.rateErr != "" || !validRate(act.rate) {
				return false
			}
			ex.res.memberActs = append(ex.res.memberActs, memberAct{tIdx: act.tIdx, rate: act.rate})
		}
		ex.memKeys = appendEdgeKeys(ex.memKeys[:0], &ex.member)
		if !sameEdgeKeys(ex.repKeys, ex.memKeys) {
			return false
		}
		if ex.memRates, ok = ex.rewardRates(ex.memRates[:0], ex.memMark); !ok || !slices.EqualFunc(ex.repRates, ex.memRates, sameBits) {
			return false
		}
	}
	return true
}

// appendEdgeKeys appends the sorted edge keys of the edges recorded in x.
func appendEdgeKeys(keys []edgeKey, x *expansion) []edgeKey {
	edges := x.edges
	for _, act := range x.acts {
		for _, pe := range edges[:act.nEdges] {
			keys = append(keys, edgeKey{
				h: pe.hash, b: x.arena[pe.off : pe.off+pe.n],
				rate: act.rate * pe.prob, imp: pe.imp,
			})
		}
		edges = edges[act.nEdges:]
	}
	sortEdgeKeys(keys)
	return keys
}

// rewardRates appends every rate reward's value at mark.
func (ex *explorer) rewardRates(dst []float64, mark []int) ([]float64, bool) {
	ex.rd = mark
	for _, rv := range ex.cm.Rewards() {
		if rv.Rate == nil {
			continue
		}
		r, err := evalRewardRate(rv, &ex.rd)
		if err != nil {
			return dst, false
		}
		dst = append(dst, r)
	}
	return dst, true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// expandState records the proto activations and edges of one marking into
// ex.out. An error that halts the expansion is recorded (stopErr) rather
// than raised: the merge raises it after committing the edges before it.
func (ex *explorer) expandState(mark []int) {
	out := ex.out
	ex.rd = mark
	for ti := range ex.timedRefs {
		tr := &ex.timedRefs[ti]
		enabled, err := activityEnabled(tr.a, &ex.rd)
		if err != nil {
			out.stopErr = err
			return
		}
		if !enabled {
			continue
		}
		rate, rateErr := tr.rate, tr.rateErr
		if !tr.fixed {
			if r, err := activityRate(tr.a, &ex.rd); err != nil {
				rate, rateErr = 0, err.Error()
			} else {
				rate, rateErr = r, ""
			}
		}
		out.acts = append(out.acts, protoAct{tIdx: int32(ti), rate: rate, rateErr: rateErr})
		if rateErr != "" {
			return
		}
		if !validRate(rate) {
			// Recorded with no edges: the merge stops at this activation
			// with the invalid-rate error, before any firing.
			return
		}
		nEdges, err := ex.fire(mark, tr)
		if err != nil {
			out.stopErr = err
			return
		}
		out.acts[len(out.acts)-1].nEdges = nEdges
	}
}

// fire records the successor edges of firing tr.a in mark. Models with
// instantaneous activities route through fireBranches and the vanishing
// closure; the instantaneous-free hot path fires on reusable scratch
// markings instead. Both enumerate the cases from caseProbs.
func (ex *explorer) fire(mark []int, tr *timedRef) (int32, error) {
	a := tr.a
	if len(ex.inst) > 0 {
		branches, err := ex.fireBranches(mark, a)
		if err != nil {
			return 0, err
		}
		var n int32
		for _, b := range branches {
			outs, err := ex.closeVanishing(b.mark, b.prob, b.imp)
			if err != nil {
				return 0, err
			}
			for _, o := range outs {
				ex.pushEdge(mark, o.mark, o.prob, ex.imps.intern(o.imp))
				n++
			}
		}
		return n, nil
	}

	// Input side, shared by all cases, on a scratch copy of the marking.
	ex.inMark = append(ex.inMark[:0], mark...)
	ex.gw = guardedWriter{mark: ex.inMark}
	if err := fireInput(a, &ex.gw); err != nil {
		return 0, err
	}
	cases := a.Cases()
	if len(cases) == 0 {
		// No cases: the simulator applies no output side.
		imp, err := ex.impulses(tr)
		if err != nil {
			return 0, err
		}
		ex.pushEdge(mark, ex.inMark, 1, imp)
		return 1, nil
	}
	if cap(ex.probs) < len(cases) {
		ex.probs = make([]float64, len(cases))
	}
	probs, err := caseProbs(a, &ex.gw, ex.probs[:len(cases)])
	if err != nil {
		return 0, err
	}
	var n int32
	for ci, p := range probs {
		if p <= 0 {
			continue
		}
		ex.outMark = append(ex.outMark[:0], ex.inMark...)
		ex.gw = guardedWriter{mark: ex.outMark}
		if err := fireOutput(a, &cases[ci], &ex.gw); err != nil {
			return 0, err
		}
		imp, err := ex.impulses(tr)
		if err != nil {
			return 0, err
		}
		ex.pushEdge(mark, ex.outMark, p, imp)
		n++
	}
	return n, nil
}

// impulses evaluates tr.a's impulse rewards on the post-fire marking in
// ex.gw and returns the id of their vector, 0 when the activity has no
// bindings.
func (ex *explorer) impulses(tr *timedRef) (int32, error) {
	if !tr.hasImp {
		return 0, nil
	}
	clear(ex.impBuf)
	if err := addImpulses(ex.cm, tr.a, &ex.gw, ex.impBuf); err != nil {
		return 0, err
	}
	return ex.imps.intern(ex.impBuf), nil
}

// pushEdge packs the successor marking to, in canonical form, into the
// output arena and records the proto edge; an edge of the state being
// expanded, from, also notes the places it changes.
func (ex *explorer) pushEdge(from, to []int, prob float64, imp int32) {
	ex.canon = append(ex.canon[:0], to...)
	ex.sym.canon(ex.canon, &ex.symScratch)
	out := ex.out
	if out == &ex.res {
		ex.noteChanges(from, ex.canon, imp)
	}
	off := int32(len(out.arena))
	out.arena = packMarking(out.arena, ex.canon)
	packed := out.arena[off:]
	out.edges = append(out.edges, protoEdge{
		off: off, n: int32(len(packed)), imp: imp, hash: hashBytes(packed), prob: prob,
	})
}
