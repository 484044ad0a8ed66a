package statespace

import (
	"fmt"
	"unsafe"

	"repro/internal/san"
)

// CertifyReference is Certify on the sequential reference explorer.
func CertifyReference(cm *san.CompiledModel, opts Options) (*Generator, san.Certificate) {
	return certifyWith(cm, opts, exploreBaseline)
}

// SolveTransientReference is SolveTransient on the sequential scatter
// solver.
func (g *Generator) SolveTransientReference(T float64) (map[string]float64, error) {
	return g.solveTransientBaseline(T)
}

// Canonicalizer returns the symmetric quotient's canonical form for cm's
// markings (the identity when cm has no exchangeable group), so tests can
// lump a flat chain by the partition the explorer uses.
func Canonicalizer(cm *san.CompiledModel) func(mark []int) []int {
	sym := findSymmetry(cm)
	if sym == nil {
		return func(mark []int) []int { return append([]int(nil), mark...) }
	}
	sc := newSymScratch(sym)
	return func(mark []int) []int {
		out := append([]int(nil), mark...)
		sym.canon(out, &sc)
		return out
	}
}

// SolveTransientIdentity is SolveTransient on the identity projection alone:
// every reward solved on the whole chain.
func (g *Generator) SolveTransientIdentity(T float64) (map[string]float64, error) {
	return g.solve(T, []projection{g.identity()})
}

// PerActivityRefusals returns the memoryless check's refusals one line per
// refused timed activity, in model order: the lines Certify states once per
// replicate group.
func PerActivityRefusals(cm *san.CompiledModel) []string {
	initial := markingVec(cm.InitialMarking())
	var lines []string
	for _, a := range cm.Model().Activities() {
		if a.Kind() != san.Timed {
			continue
		}
		if _, err := activityRate(a, initial); err != nil {
			lines = append(lines, fmt.Sprintf("%s: %v", san.RefusalNonMemoryless, err))
		}
	}
	return lines
}

// RetainedBytes counts the bytes g's slices hold, from their capacities:
// the marking blocks and the views into them, the edge blocks and their
// ends, the kind table, the impulse vectors, the initial distribution and
// the projections. The compiled model it shares with its caller is not
// counted.
func (g *Generator) RetainedBytes() int {
	const header = int(unsafe.Sizeof([]byte(nil)))
	n := cap(g.States)*header + cap(g.marks)*header
	for _, b := range g.marks {
		n += cap(b)
	}
	n += cap(g.edges.blocks)*header + cap(g.edges.ends)*4 + cap(g.edges.open)*int(unsafe.Sizeof(edge{}))
	for _, b := range g.edges.blocks {
		n += cap(b) * int(unsafe.Sizeof(edge{}))
	}
	n += cap(g.kinds) * int(unsafe.Sizeof(edgeKind{}))
	n += cap(g.impulses) * header
	for _, v := range g.impulses {
		n += cap(v) * 8
	}
	n += cap(g.Initial)*int(unsafe.Sizeof(StateProb{})) + cap(g.InitialImpulses)*8
	n += cap(g.projections) * int(unsafe.Sizeof(projection{}))
	for _, p := range g.projections {
		n += cap(p.rewards)*8 + cap(p.classOf)*4 + cap(p.reps)*4
	}
	return n
}
