package statespace

import (
	"encoding/binary"
	"math"
	"slices"
)

// This file holds the generator's storage (docs/statespace.md, "The
// generated CTMC"). A state is kept only as its interned packed marking
// (intern.go) and decoded into the caller's scratch when read. Its edges
// are 8-byte records stored contiguously in exploration order: the target
// state and the id of the edge's kind, its rate and impulse vector, in a
// per-generator table interned by bits. Markings and edges both go through
// a blockStore, which copies each block out once at its exact size; slice
// growth copies records only in the open block, when a block outgrows it.

// blockShift sets the states per block of a blockStore: 1024.
const (
	blockShift = 10
	blockMask  = 1<<blockShift - 1
)

// blockStore accumulates one run of records per state, state by state in
// index order. Every 1<<blockShift consecutive states share one block,
// copied out at its exact size when its last state is committed; until
// then their runs sit in the open block, scratch reused block to block.
type blockStore[T any] struct {
	blocks [][]T
	ends   []int32 // per committed state: the end of its run in its block
	open   []T
}

// add appends records to the run of the state being committed.
func (bs *blockStore[T]) add(v ...T) { bs.open = append(reserve(bs.open, len(v)), v...) }

// pending returns the records added since the last committed state.
func (bs *blockStore[T]) pending() []T {
	lo := int32(0)
	if n := len(bs.ends); n&blockMask != 0 {
		lo = bs.ends[n-1]
	}
	return bs.open[lo:]
}

// endState commits the state whose records were added since the last call.
func (bs *blockStore[T]) endState() {
	bs.ends = append(reserve(bs.ends, 1), int32(len(bs.open)))
	if len(bs.ends)&blockMask == 0 {
		bs.flush()
	}
}

// flush copies the open block out at its exact size.
func (bs *blockStore[T]) flush() {
	bs.blocks = append(bs.blocks, slices.Clone(bs.open))
	bs.open = bs.open[:0]
}

// finish flushes a partly filled last block and drops the scratch.
func (bs *blockStore[T]) finish() {
	if len(bs.ends)&blockMask != 0 {
		bs.flush()
	}
	bs.open = nil
}

// reset empties the store for reuse as scratch, keeping the open block.
func (bs *blockStore[T]) reset() {
	clear(bs.blocks)
	bs.blocks, bs.ends, bs.open = bs.blocks[:0], bs.ends[:0], bs.open[:0]
}

// run returns committed state s's records, in the order they were added,
// with the capacity ending at the run's end.
func (bs *blockStore[T]) run(s int) []T {
	lo := int32(0)
	if s&blockMask != 0 {
		lo = bs.ends[s-1]
	}
	b := bs.open
	if bi := s >> blockShift; bi < len(bs.blocks) {
		b = bs.blocks[bi]
	}
	hi := bs.ends[s]
	return b[lo:hi:hi]
}

// reserve returns s with room for n more elements, at least doubling its
// capacity when it is short, so a slice grown piece by piece allocates about
// twice its final size in all, where append's gentler growth past 256
// elements allocates about five times.
func reserve[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	grown := make([]T, len(s), max(2*cap(s), len(s)+n, 1024))
	copy(grown, s)
	return grown
}

// edge is one edge of the generated CTMC: a timed activity firing (one
// probabilistic case, one vanishing-elimination path) from one tangible
// state to another. Parallel edges between the same pair of states stay
// separate, each with its own impulse vector; the solver sums them when it
// builds the uniformized matrix.
type edge struct {
	// to is the target state; the source is the state whose edges hold it.
	to int32
	// kind names the edge's rate and impulse vector in Generator.kinds.
	kind int32
}

// edgeKind is what an edge carries besides its target.
type edgeKind struct {
	// rateBits holds the bits of the activity's rate times the case
	// probability times the probability of the vanishing path.
	rateBits uint64
	// imp names the impulse rewards earned when the edge fires, per reward
	// variable (the firing activity's plus those of every instantaneous
	// activity on its path), in Generator.impulses; 0 when it earns none.
	imp int32
}

func (k edgeKind) rate() float64 { return math.Float64frombits(k.rateBits) }

// kindTable interns edge kinds by their bits, so two ids are equal exactly
// when their rates and impulse vectors are bit for bit.
type kindTable struct {
	kinds []edgeKind
	ids   map[edgeKind]int32
}

func newKindTable() kindTable { return kindTable{ids: map[edgeKind]int32{}} }

// intern returns the id of the kind (rate, imp), adding it on first sight.
func (t *kindTable) intern(rate float64, imp int32) int32 {
	k := edgeKind{rateBits: math.Float64bits(rate), imp: imp}
	if id, ok := t.ids[k]; ok {
		return id
	}
	id := int32(len(t.kinds))
	t.kinds = append(t.kinds, k)
	t.ids[k] = id
	return id
}

// lookup returns the id of the kind (rate, imp) without adding it.
func (t *kindTable) lookup(rate float64, imp int32) (int32, bool) {
	id, ok := t.ids[edgeKind{rateBits: math.Float64bits(rate), imp: imp}]
	return id, ok
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
	id, ok := t.lookup(v)
	if ok {
		return id
	}
	id = int32(len(t.vecs))
	t.vecs = append(t.vecs, slices.Clone(v))
	t.ids[string(t.key)] = id
	return id
}

// lookup returns v's id without adding it, leaving v's key in t.key.
func (t *impulseTable) lookup(v []float64) (int32, bool) {
	t.key = t.key[:0]
	zero := true
	for _, x := range v {
		b := math.Float64bits(x)
		zero = zero && b == 0
		t.key = binary.LittleEndian.AppendUint64(t.key, b)
	}
	if zero {
		return 0, true
	}
	id, ok := t.ids[string(t.key)]
	return id, ok
}

// out returns state s's edges, in (activity declaration, case, path) order.
func (g *Generator) out(s int) []edge { return g.edges.run(s) }

// NumTransitions returns the total edge count of the explored chain.
func (g *Generator) NumTransitions() int {
	n := 0
	for _, b := range g.edges.blocks {
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
	kd := g.kinds[e.kind]
	return int(e.to), kd.rate(), g.impulses[kd.imp]
}
