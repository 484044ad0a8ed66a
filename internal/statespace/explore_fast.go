package statespace

import (
	"cmp"
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
// States are expanded one at a time, in index order, in one pass, as the
// reference BFS expands them: each enabled timed activity is fired, and each
// tangible successor is interned and its edge committed at once, so state
// numbering, edge order, refusal text and budget behavior are the reference
// explorer's. A state's marking lives only in the packed index and is
// decoded into scratch to be expanded, and the chain's edges go straight
// into the generator's compact storage (chain.go).
//
// With exchangeable replicate groups (symmetry.go) the same engine explores
// the symmetric quotient: every marking is interned in canonical form, so a
// state is a class and its marking the class representative. Once the
// representative's edges are committed, the explorer expands every other
// member of the class and checks that each gave the representative's
// multiset of edges (successor class, rate, impulse vector) and its reward
// rates, bit for bit — the strong lumpability condition, checked on every
// flat state. A member's successors are looked up in the index, never
// interned: every class the representative reaches is interned by then, so a
// member successor that is not an interned class fails the check. Members
// count against the state budget and their markings fold into the place
// bounds. Any failure — a member that differs, a refusal, a budget overrun —
// abandons the quotient, and explore reruns the flat exploration. The flat
// exploration is the quotient with no groups: a marking is its own canonical
// form and every class has one member.

// errNotLumpable abandons a quotient whose member check failed. It never
// reaches a certificate: the flat rerun decides the model's fate.
var errNotLumpable = errors.New("statespace: symmetric quotient is not lumpable")

// timedRef caches per-activity facts the hot loop would otherwise re-derive
// per state: whether the delay is marking-independent, its rate then
// classified once, here.
type timedRef struct {
	a       *san.Activity
	fixed   bool    // marking-independent delay: rate classified once
	rate    float64 // valid when fixed and rateErr is nil
	rateErr error   // classification failure, raised when first enabled
}

// explorer generates one chain: the semantic core that fires activities and
// closes vanishing markings (explore.go), the chain under construction, and
// the expansion scratch, reused state to state so steady-state expansion
// allocates only when the index, the edge storage, the kind table or the
// impulse table grows.
type explorer struct {
	cm        *san.CompiledModel
	inst      []*san.Activity
	timedRefs []timedRef
	nPlaces   int
	nRewards  int
	maxStates int

	idx         *markIndex
	edges       blockStore[edge]
	kinds       kindTable
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

	cur   []int     // the marking of the state being expanded
	fresh []int     // a newly interned marking
	timed firing    // the timed firings' scratch
	outs  []outcome // one firing outcome's tangible outcomes

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
	repEdges   []edge
	memEdges   []edge
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
		kinds:       newKindTable(),
		imps:        newImpulseTable(),
		observedMax: make([]int, nP),
		seenRate:    make([]bool, model.NumActivities()),
		pinnedRate:  make([]float64, model.NumActivities()),
		sym:         sym,
		symScratch:  newSymScratch(sym),
		cur:         make([]int, nP),
		fresh:       make([]int, nP),
		memMark:     make([]int, nP),
	}
	if nR >= 2 {
		ex.changes = newUnionFind(nP + nR)
	}
	initial := markingVec(cm.InitialMarking())
	for _, a := range model.Activities() {
		if a.Kind() != san.Timed {
			continue
		}
		tr := timedRef{a: a}
		if a.FixedDelay() != nil {
			tr.fixed = true
			tr.rate, tr.rateErr = activityRate(a, initial)
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
	initOutcomes, err := ex.closeVanishing(nil, ex.cm.InitialMarking(), 1, nil)
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

// run expands each state in index order, the states its edges intern
// included, and checks its class's members, until every state is committed,
// an error is raised, or the budget runs out.
func (ex *explorer) run() error {
	for si := 0; si < ex.idx.len(); si++ {
		mark := unpackMarking(ex.idx.packedOf(si), ex.cur)
		if err := ex.expand(si, mark, false); err != nil || ex.overBudget {
			return err
		}
		if !ex.checkMembers(si, mark) {
			return errNotLumpable
		}
		ex.edges.endState()
	}
	return nil
}

// finish hands the explored chain to gen: the packed markings, the edges,
// the kinds and impulse vectors they name, and the exploration's place
// partition to res.
func (ex *explorer) finish(gen *Generator, res *exploreResult) {
	ex.edges.finish()
	gen.States = ex.idx.views()
	gen.marks = ex.idx.marks.blocks
	gen.edges = ex.edges
	gen.kinds = ex.kinds.kinds
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

// pack writes mark's canonical form into ex.canon and its packing into
// ex.packBuf, and returns the packing's hash.
func (ex *explorer) pack(mark []int) uint64 {
	ex.canon = append(ex.canon[:0], mark...)
	ex.sym.canon(ex.canon, &ex.symScratch)
	ex.packBuf = packMarking(ex.packBuf[:0], ex.canon)
	return hashBytes(ex.packBuf)
}

// intern interns an unpacked marking (initial-closure path) in canonical
// form.
func (ex *explorer) intern(mark []int) (int, bool) {
	h := ex.pack(mark)
	return ex.internPacked(ex.packBuf, h)
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

func validRate(rate float64) bool {
	return rate > 0 && !math.IsInf(rate, 0) && !math.IsNaN(rate)
}

// expand fires every enabled timed activity of mark, in model order, and
// hands each tangible successor to the edge step: those of state si are
// interned and their edges committed, those of a member of its class
// (member set) are collected for the check. It stops at the first error,
// and returns nil with the budget flag set when the budget runs out.
func (ex *explorer) expand(si int, mark []int, member bool) error {
	ex.rd = mark
	for ti := range ex.timedRefs {
		tr := &ex.timedRefs[ti]
		enabled, err := activityEnabled(tr.a, &ex.rd)
		if err != nil {
			return err
		}
		if !enabled {
			continue
		}
		rate, err := tr.rate, tr.rateErr
		if !tr.fixed {
			rate, err = activityRate(tr.a, &ex.rd)
		}
		if err != nil {
			return nonMemorylessError(err.Error())
		}
		if err := ex.pinRate(tr.a, rate); err != nil {
			return err
		}
		if !validRate(rate) {
			return fmt.Errorf("activity %q: rate %g at state %d", tr.a.Name(), rate, si)
		}
		fired, err := ex.fire(&ex.timed, mark, tr.a)
		if err != nil {
			return err
		}
		for _, f := range fired {
			if ex.outs, err = ex.closeVanishing(ex.outs[:0], f.mark, f.prob, f.imp); err != nil {
				return err
			}
			for _, o := range ex.outs {
				if ex.step(mark, o.mark, rate*o.prob, o.imp, member) {
					continue
				}
				if member {
					return errNotLumpable
				}
				return nil // budget flag set; the caller stops
			}
		}
	}
	return nil
}

// step is the edge step for the successor to of marking from, reached at
// rate and earning the impulses imp. It puts to in canonical form; then the
// edge of a state being expanded is committed, its successor, impulse
// vector and kind interned, and that of a member is collected for the check
// with its successor, impulse vector and kind only looked up. It reports
// false when the budget runs out or a member's edge names a class, vector
// or kind that is not interned: no edge of the representative has it.
func (ex *explorer) step(from, to []int, rate float64, imp []float64, member bool) bool {
	h := ex.pack(to)
	if member {
		ti, ok := ex.idx.lookup(ex.packBuf, h)
		if !ok {
			return false
		}
		id, ok := ex.imps.lookup(imp)
		if !ok {
			return false
		}
		k, ok := ex.kinds.lookup(rate, id)
		if !ok {
			return false
		}
		ex.memEdges = append(ex.memEdges, edge{to: int32(ti), kind: k})
		return true
	}
	id := ex.imps.intern(imp)
	ti, ok := ex.internPacked(ex.packBuf, h)
	if !ok {
		return false
	}
	ex.noteChanges(from, ex.canon, id)
	ex.edges.add(edge{to: int32(ti), kind: ex.kinds.intern(rate, id)})
	return true
}

// checkMembers expands every member of class si other than its
// representative rep, once rep's edges are added, and reports whether each
// gave rep's multiset of edges — target and kind, kinds being interned by
// rate bits and impulse vector id, and vectors by bits, so equal kinds are
// equal rates and vectors — and rep's reward rates, bit for bit. A class
// with no other member, such as every class of the flat chain, passes.
func (ex *explorer) checkMembers(si int, rep []int) bool {
	if !ex.iter.start(ex.sym, rep) {
		return true
	}
	ex.repEdges = append(ex.repEdges[:0], ex.edges.pending()...)
	slices.SortFunc(ex.repEdges, cmpEdges)
	var ok bool
	if ex.repRates, ok = ex.rewardRates(ex.repRates[:0], rep); !ok {
		return false
	}
	for ex.iter.next() {
		ex.iter.fill(ex.memMark)
		ex.memEdges = ex.memEdges[:0]
		if ex.expand(si, ex.memMark, true) != nil {
			return false
		}
		slices.SortFunc(ex.memEdges, cmpEdges)
		if slices.CompareFunc(ex.repEdges, ex.memEdges, cmpEdges) != 0 {
			return false
		}
		if ex.memRates, ok = ex.rewardRates(ex.memRates[:0], ex.memMark); !ok || !slices.EqualFunc(ex.repRates, ex.memRates, sameBits) {
			return false
		}
	}
	return true
}

// cmpEdges orders edges by target and kind; it is zero exactly when they
// are bit-identical.
func cmpEdges(a, b edge) int {
	return cmp.Or(cmp.Compare(a.to, b.to), cmp.Compare(a.kind, b.kind))
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
