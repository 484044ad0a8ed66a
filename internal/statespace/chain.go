package statespace

import (
	"encoding/binary"
	"math"
	"slices"
)

// This file holds the generator's storage (docs/statespace.md, "The
// generated CTMC"). A state is kept only as its interned packed marking
// (intern.go) and decoded into the caller's scratch when read. Its edges
// are 16-byte records stored contiguously in exploration order: the target
// state, the id of an impulse vector interned by bits, and the rate. Edges
// are committed state by state, and every 1<<edgeBlockShift consecutive
// states share one block, copied out at its exact size when its last state
// is committed, so no edge is copied by slice growth.

// edgeBlockShift sets the states per edge block: 1024.
const (
	edgeBlockShift = 10
	edgeBlockMask  = 1<<edgeBlockShift - 1
)

// edge is one edge of the generated CTMC: a timed activity firing (one
// probabilistic case, one vanishing-elimination path) from one tangible
// state to another. Parallel edges between the same pair of states stay
// separate, each with its own impulse vector; the solver sums them when it
// builds the uniformized matrix.
type edge struct {
	// to is the target state; the source is the state whose edges hold it.
	to int32
	// imp names the impulse rewards earned when the edge fires, per reward
	// variable (the firing activity's plus those of every instantaneous
	// activity on its path), in Generator.impulses; 0 when it earns none.
	imp int32
	// rate is the activity's rate times the case probability times the
	// probability of the vanishing path.
	rate float64
}

// edgeStore accumulates a chain's edges, state by state in index order.
type edgeStore struct {
	blocks [][]edge
	ends   []int32
	open   []edge // the open block's edges: scratch reused block to block
}

// add appends an edge of the state being committed.
func (es *edgeStore) add(e edge) { es.open = append(es.open, e) }

// endState commits the state whose edges were added since the last call.
func (es *edgeStore) endState() {
	es.ends = append(es.ends, int32(len(es.open)))
	if len(es.ends)&edgeBlockMask == 0 {
		es.flush()
	}
}

// flush copies the open block out at its exact size.
func (es *edgeStore) flush() {
	es.blocks = append(es.blocks, slices.Clone(es.open))
	es.open = es.open[:0]
}

// finish flushes a partly filled last block.
func (es *edgeStore) finish() {
	if len(es.ends)&edgeBlockMask != 0 {
		es.flush()
	}
}

// impulseTable interns impulse vectors by their bits. An all-+0.0 vector
// earns nothing and shares the nil vector's id 0, so two ids are equal
// exactly when their vectors are bit for bit, a missing vector reading as
// +0.0 everywhere.
type impulseTable struct {
	vecs [][]float64
	ids  map[string]int32
	key  []byte
}

func newImpulseTable() impulseTable {
	return impulseTable{vecs: [][]float64{nil}, ids: map[string]int32{}}
}

// intern returns v's id, copying v into the table on first sight.
func (t *impulseTable) intern(v []float64) int32 {
	t.key = t.key[:0]
	zero := true
	for _, x := range v {
		b := math.Float64bits(x)
		zero = zero && b == 0
		t.key = binary.LittleEndian.AppendUint64(t.key, b)
	}
	if zero {
		return 0
	}
	if id, ok := t.ids[string(t.key)]; ok {
		return id
	}
	id := int32(len(t.vecs))
	t.vecs = append(t.vecs, slices.Clone(v))
	t.ids[string(t.key)] = id
	return id
}

// out returns state s's edges, in (activity declaration, case, path) order.
func (g *Generator) out(s int) []edge {
	lo := int32(0)
	if s&edgeBlockMask != 0 {
		lo = g.ends[s-1]
	}
	return g.blocks[s>>edgeBlockShift][lo:g.ends[s]]
}

// NumTransitions returns the total edge count of the explored chain.
func (g *Generator) NumTransitions() int {
	n := 0
	for _, b := range g.blocks {
		n += len(b)
	}
	return n
}

// Marking decodes state s's marking, one token count per place in
// place-index order, into dst (grown when it is too short) and returns it.
func (g *Generator) Marking(s int, dst []int) []int {
	n := g.cm.Model().NumPlaces()
	return unpackMarking(g.States[s], slices.Grow(dst[:0], n)[:n])
}

// Degree returns the number of outgoing edges of state s.
func (g *Generator) Degree(s int) int { return len(g.out(s)) }

// Edge returns the k-th outgoing edge of state s, in (activity declaration,
// case, path) order: its target state, its rate, and the impulse rewards it
// earns per reward variable — nil when it earns none, otherwise a vector
// shared with every edge that earns the same bits, which callers must not
// modify.
func (g *Generator) Edge(s, k int) (to int, rate float64, impulses []float64) {
	e := g.out(s)[k]
	return int(e.to), e.rate, g.impulses[e.imp]
}
