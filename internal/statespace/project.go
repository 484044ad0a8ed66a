package statespace

import (
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/san"
)

// This file holds the projected solve: the partition of the rewards into
// components, the lumping of the generated chain onto each component's
// places, and the check that admits a lumping (docs/statespace.md,
// "Projected solve").
//
// The partition is a union-find over places and rewards, built from the
// explored chain: the places one edge changes belong together, an impulse
// reward belongs with every place an edge that earns it changes (both
// joined during exploration, where an edge's two markings are decoded
// anyway), and a rate reward with every place it reads (recorded while it
// is evaluated on every state). When the rewards fall into more than one
// component, the chain is lumped onto each component's places: two states
// are in one class when they agree on those places. A lumping is admitted
// only if every state gives its class representative's sorted multiset of
// (successor class, rate, impulses of the component's rewards), the same
// reward rates and the same impulse flux over its same-class edges, bit for
// bit — strong lumpability, checked on every state, so each reward's answer
// on its lumped chain is its answer on the whole chain. Any mismatch keeps
// the whole chain for every reward.
//
// The solver runs every projection through one path: the identity
// projection, one class per state, is the whole chain, and solving on it is
// solving the generator as explored.

// projection is one lumped view of the generated chain on which the solver
// answers some of the rewards. classOf maps every state to its class and
// reps lists each class's representative, its first state in BFS order, so
// classes are numbered in the order BFS first reaches them.
type projection struct {
	rewards []int // indices into the compiled model's rewards, ascending
	places  int   // the component's place count, for the evidence
	classOf []int32
	reps    []int32
}

// identity returns the projection of every reward onto the whole chain.
func (g *Generator) identity() projection {
	n := len(g.States)
	p := projection{
		rewards: make([]int, len(g.cm.Rewards())),
		classOf: make([]int32, n),
		reps:    make([]int32, n),
	}
	for ri := range p.rewards {
		p.rewards[ri] = ri
	}
	for s := range n {
		p.classOf[s], p.reps[s] = int32(s), int32(s)
	}
	return p
}

// project returns the projections the solver runs: one per component when
// the rewards fall into several and every lumping passes the check,
// otherwise the identity projection alone. changes is the exploration's
// partition of the places (exploreResult.changes).
func (g *Generator) project(changes unionFind) []projection {
	comps := g.components(changes)
	if len(comps) < 2 {
		return []projection{g.identity()}
	}
	projs := make([]projection, len(comps))
	for i, c := range comps {
		projs[i] = g.lump(c)
		if !g.lumpable(&projs[i]) {
			return []projection{g.identity()}
		}
	}
	return projs
}

// evidence renders the projections for the certificate, or nil for the
// identity projection alone.
func (g *Generator) evidence(projs []projection) []san.ProjectionEvidence {
	if len(projs) < 2 {
		return nil
	}
	rewards := g.cm.Rewards()
	out := make([]san.ProjectionEvidence, len(projs))
	for i := range projs {
		p := &projs[i]
		ev := san.ProjectionEvidence{Places: p.places, States: len(p.reps)}
		for _, ri := range p.rewards {
			ev.Rewards = append(ev.Rewards, rewards[ri].Name)
		}
		for c, r := range p.reps {
			for _, e := range g.out(int(r)) {
				if p.classOf[e.to] != int32(c) {
					ev.Transitions++
				}
			}
		}
		out[i] = ev
	}
	return out
}

// component is one block of the partition: the rewards it answers, in
// index order, and its places, ascending.
type component struct {
	rewards []int
	places  []int
}

// components partitions the rewards by the places they depend on, in the
// order of each component's first reward, completing uf: the places (then
// the rewards) the exploration joined by the edges' changes and impulses.
// It returns nil when a rate reward panics on some state: the solve then
// reports the panic on the whole chain.
func (g *Generator) components(uf unionFind) []component {
	nP := g.cm.Model().NumPlaces()
	rewards := g.cm.Rewards()
	if len(rewards) < 2 {
		return nil
	}
	var rated []int         // the rewards with a rate
	var recs []readRecorder // per rated reward: the places it read
	for ri, rv := range rewards {
		if rv.Rate != nil {
			rated = append(rated, ri)
			recs = append(recs, readRecorder{read: make([]bool, nP)})
		}
	}
	var mark []int
	for s := range g.States {
		mark = g.Marking(s, mark)
		for k, ri := range rated {
			recs[k].mark = mark
			if _, err := evalRewardRate(rewards[ri], &recs[k]); err != nil {
				return nil
			}
		}
	}
	for k, ri := range rated {
		for p, read := range recs[k].read {
			if read {
				uf.union(nP+ri, p)
			}
		}
	}

	compOf := make([]int, nP+len(rewards)) // per root: component index + 1
	var comps []component
	for ri := range rewards {
		root := uf.find(nP + ri)
		if compOf[root] == 0 {
			comps = append(comps, component{})
			compOf[root] = len(comps)
		}
		c := &comps[compOf[root]-1]
		c.rewards = append(c.rewards, ri)
	}
	if len(comps) < 2 {
		return nil
	}
	for p := range nP {
		if ci := compOf[uf.find(p)]; ci > 0 {
			comps[ci-1].places = append(comps[ci-1].places, p)
		}
	}
	return comps
}

// readRecorder is a marking that records the places read from it.
type readRecorder struct {
	mark []int
	read []bool
}

func (r *readRecorder) Tokens(p *san.Place) int {
	r.read[p.Index()] = true
	return r.mark[p.Index()]
}

// unionFind is a disjoint-set forest with path halving.
type unionFind []int32

func newUnionFind(n int) unionFind {
	uf := make(unionFind, n)
	for i := range uf {
		uf[i] = int32(i)
	}
	return uf
}

func (uf unionFind) find(x int) int {
	for int(uf[x]) != x {
		uf[x] = uf[uf[x]]
		x = int(uf[x])
	}
	return x
}

func (uf unionFind) union(a, b int) {
	if ra, rb := uf.find(a), uf.find(b); ra != rb {
		uf[max(ra, rb)] = int32(min(ra, rb))
	}
}

// lump classifies every state by its tokens on c's places, interning the
// packed restriction, so class numbers follow the states' BFS order.
func (g *Generator) lump(c component) projection {
	p := projection{rewards: c.rewards, places: len(c.places), classOf: make([]int32, len(g.States))}
	idx := newMarkIndex()
	var buf []byte
	var mark []int
	for s := range g.States {
		mark = g.Marking(s, mark)
		buf = buf[:0]
		for _, pl := range c.places {
			buf = binary.AppendUvarint(buf, uint64(mark[pl]))
		}
		h := hashBytes(buf)
		ci, ok := idx.lookup(buf, h)
		if !ok {
			ci = idx.insert(buf, h)
			p.reps = append(p.reps, int32(s))
		}
		p.classOf[s] = int32(ci)
	}
	return p
}

// lumpable runs the strong-lumpability check of p on every state. States
// are visited class by class (a counting sort keeps each class's states
// ascending, so its representative comes first).
func (g *Generator) lumpable(p *projection) bool {
	n, nC := len(p.classOf), len(p.reps)
	next := make([]int32, nC+1) // per class: where its next state goes
	for _, c := range p.classOf {
		next[c+1]++
	}
	for c := range nC {
		next[c+1] += next[c]
	}
	order := make([]int32, n)
	for s, c := range p.classOf {
		order[next[c]] = int32(s)
		next[c]++
	}
	return newClassChecker(g, p).check(order)
}

// classChecker is the check's state: the projection's rewards split by
// kind, the representative's signature and the member's.
type classChecker struct {
	g         *Generator
	p         *projection
	rates     []int                    // the projection's rewards with a rate
	imps      []int                    // the projection's rewards with impulses
	rd        markingVec               // reward rates read &rd: no per-call interface boxing
	cmp       func(a, b classEdge) int // cmpEdges, bound once rather than per sort
	rep, mem  stateSig
	repOf     int32 // the class whose representative rep holds; -1 for none
	repFailed bool  // a reward rate panicked on that representative
}

// stateSig is what the check compares of one state.
type stateSig struct {
	edges []classEdge // cross-class edges, sorted
	rates []float64   // the projection's reward rates
	flux  []float64   // per impulse reward: Σ rate·impulse over same-class edges
}

// classEdge is one cross-class edge as the check compares it.
type classEdge struct {
	class int32
	imp   int32
	rate  float64
}

func newClassChecker(g *Generator, p *projection) *classChecker {
	ck := &classChecker{g: g, p: p, repOf: -1}
	for _, ri := range p.rewards {
		rv := g.cm.Rewards()[ri]
		if rv.Rate != nil {
			ck.rates = append(ck.rates, ri)
		}
		if len(rv.Impulses) > 0 {
			ck.imps = append(ck.imps, ri)
		}
	}
	ck.cmp = ck.cmpEdges
	return ck
}

// check compares every state in members (the class-sorted order) with its
// class representative.
func (ck *classChecker) check(members []int32) bool {
	for _, s := range members {
		c := ck.p.classOf[s]
		r := ck.p.reps[c]
		if s == r {
			continue
		}
		if ck.repOf != c {
			ck.repOf = c
			ck.repFailed = !ck.signature(&ck.rep, r)
		}
		if ck.repFailed || !ck.signature(&ck.mem, s) || !ck.same(&ck.rep, &ck.mem) {
			return false
		}
	}
	return true
}

// signature fills sig with state s's cross-class edges, reward rates and
// same-class impulse flux, or reports false when a reward rate panics.
func (ck *classChecker) signature(sig *stateSig, s int32) bool {
	c := ck.p.classOf[s]
	sig.edges = sig.edges[:0]
	sig.flux = slices.Grow(sig.flux[:0], len(ck.imps))[:len(ck.imps)]
	clear(sig.flux)
	impulses := ck.g.impulses
	for _, e := range ck.g.out(int(s)) {
		if d := ck.p.classOf[e.to]; d != c {
			sig.edges = append(sig.edges, classEdge{class: d, imp: e.imp, rate: e.rate})
			continue
		}
		if e.imp == 0 {
			continue
		}
		for k, ri := range ck.imps {
			sig.flux[k] += e.rate * impulses[e.imp][ri]
		}
	}
	slices.SortFunc(sig.edges, ck.cmp)
	sig.rates = sig.rates[:0]
	ck.rd = ck.g.Marking(int(s), ck.rd)
	rewards := ck.g.cm.Rewards()
	for _, ri := range ck.rates {
		r, err := evalRewardRate(rewards[ri], &ck.rd)
		if err != nil {
			return false
		}
		sig.rates = append(sig.rates, r)
	}
	return true
}

// cmpEdges orders cross-class edges by class, rate bits and the impulse bits
// of the projection's rewards; it is zero exactly when those agree bit for
// bit. It compares bits, not ids: an id names the whole vector, rewards
// outside the projection included.
func (ck *classChecker) cmpEdges(a, b classEdge) int {
	if a.class != b.class {
		return int(a.class - b.class)
	}
	if c := cmpUint64(math.Float64bits(a.rate), math.Float64bits(b.rate)); c != 0 {
		return c
	}
	va, vb := ck.g.impulses[a.imp], ck.g.impulses[b.imp]
	for _, ri := range ck.imps {
		if c := cmpUint64(bitsAt(va, ri), bitsAt(vb, ri)); c != 0 {
			return c
		}
	}
	return 0
}

// bitsAt returns the bits of v[i], or +0.0's when v is nil.
func bitsAt(v []float64, i int) uint64 {
	if i < len(v) {
		return math.Float64bits(v[i])
	}
	return 0
}

// same reports whether two signatures agree bit for bit.
func (ck *classChecker) same(a, b *stateSig) bool {
	return slices.EqualFunc(a.edges, b.edges, func(x, y classEdge) bool { return ck.cmpEdges(x, y) == 0 }) &&
		slices.EqualFunc(a.rates, b.rates, sameBits) &&
		slices.EqualFunc(a.flux, b.flux, sameBits)
}
