package statespace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/san"
)

// This file derives the incidence matrix of a compiled model and computes
// its place invariants (P-invariants, nonnegative left null space) and
// transition invariants (T-invariants, nonnegative right null space) over
// the rationals with the classic Farkas tableau. A P-invariant y with
// y·C = 0 gives y·M = y·M0 in every reachable marking M, so every place p
// with y_p > 0 is bounded by (y·M0)/y_p — a boundedness certificate that
// holds without exploring a single state.
//
// Columns of C are (activity, case) pairs. Arc effects are exact; gate
// transforms are classified by san's closure probe over its base family
// (san.Probe.GateEffect) — a gate whose token delta is the same at every
// base contributes that constant delta, while a marking-dependent gate, or
// one that panics at some bases, pins the places it touches out of the
// invariant space (their coefficients are forced to zero), keeping every
// reported invariant sound for the arc-visible part of the net. A gate that
// panics at every base leaves its touched places unknown, and invariants are
// skipped altogether.

// incidenceColumn is one (activity, case) column of the incidence matrix.
type incidenceColumn struct {
	effect []int64 // token delta per place index
	exact  bool    // false when a non-constant gate makes the column partial
}

// pInvariant is one place invariant: coefficient per place and the conserved
// weighted sum c0 = y·M0.
type pInvariant struct {
	coeffs []int64
	c0     int64
}

// invariantResult carries the invariant computation outcome into the
// certificate assembly. It is empty when invariants were skipped.
type invariantResult struct {
	pInvariants []pInvariant
	tInvariants int
}

// boundFor returns the tightest invariant bound for place index pi, with its
// rendered invariant evidence, or ok=false when no invariant covers it.
func (r invariantResult) boundFor(pi int, cm *san.CompiledModel) (int, string, bool) {
	best := int64(-1)
	evidence := ""
	for _, inv := range r.pInvariants {
		if inv.coeffs[pi] <= 0 {
			continue
		}
		b := inv.c0 / inv.coeffs[pi]
		if best < 0 || b < best {
			best = b
			evidence = renderInvariant(inv, cm)
		}
	}
	if best < 0 {
		return 0, "", false
	}
	return int(best), evidence, true
}

// uncoveredPlaces returns the sorted names of places no P-invariant bounds.
func (r invariantResult) uncoveredPlaces(cm *san.CompiledModel) []string {
	var idx []int
	for _, p := range cm.Model().Places() {
		pi := p.Index()
		covered := false
		for _, inv := range r.pInvariants {
			if inv.coeffs[pi] > 0 {
				covered = true
				break
			}
		}
		if !covered {
			idx = append(idx, pi)
		}
	}
	return sortedPlaceNames(cm, idx)
}

// renderInvariant renders "2·a + b = 5" evidence for a P-invariant.
func renderInvariant(inv pInvariant, cm *san.CompiledModel) string {
	places := cm.Model().Places()
	var terms []string
	for pi, c := range inv.coeffs {
		if c == 0 {
			continue
		}
		if c == 1 {
			terms = append(terms, places[pi].Name())
		} else {
			terms = append(terms, fmt.Sprintf("%d·%s", c, places[pi].Name()))
		}
	}
	return fmt.Sprintf("%s = %d", strings.Join(terms, " + "), inv.c0)
}

// computeInvariants builds the incidence matrix and runs Farkas both ways.
// Budget overruns (places, columns, P-tableau rows) and a gate transform
// that panics at every probe base skip invariants, returning an empty
// result instead of failing: invariants are evidence and
// refusal-classification aids, not a solver precondition (exploration
// supplies the exhaustive bounds).
func computeInvariants(cm *san.CompiledModel) invariantResult {
	model := cm.Model()
	nPlaces := model.NumPlaces()
	if nPlaces > maxInvariantPlaces {
		return invariantResult{}
	}
	cols, pinned, ok := incidenceMatrix(cm)
	if !ok || len(cols) > maxInvariantColumns {
		return invariantResult{}
	}

	res := invariantResult{}
	initial := cm.InitialMarking()

	// P-invariants: Farkas over rows = places (pinned places excluded, which
	// forces their coefficients to zero), columns = (activity, case) pairs.
	// For an unpinned place every column's effect on it is arc-exact even
	// when the column carries a non-constant gate, because pinning covers
	// exactly the places such gates touch.
	prows := make([]farkasRow, 0, nPlaces)
	for pi := 0; pi < nPlaces; pi++ {
		if pinned[pi] {
			continue
		}
		row := farkasRow{d: make([]int64, len(cols)), y: make([]int64, nPlaces)}
		for j, col := range cols {
			row.d[j] = col.effect[pi]
		}
		row.y[pi] = 1
		prows = append(prows, row)
	}
	pvs, ok := farkas(prows, maxFarkasRows)
	if !ok {
		return invariantResult{}
	}
	for _, y := range pvs {
		var c0 int64
		for pi, c := range y {
			c0 += c * int64(initial[pi])
		}
		res.pInvariants = append(res.pInvariants, pInvariant{coeffs: y, c0: c0})
	}

	// T-invariants: Farkas on the transpose. Columns with non-constant gates
	// have partial effects, so they are excluded (their firing count is
	// forced to zero in any reported invariant).
	trows := make([]farkasRow, 0, len(cols))
	for j, col := range cols {
		if !col.exact {
			continue
		}
		row := farkasRow{d: make([]int64, nPlaces), y: make([]int64, len(cols))}
		copy(row.d, col.effect)
		row.y[j] = 1
		trows = append(trows, row)
	}
	tvs, ok := farkas(trows, maxFarkasRows)
	if !ok {
		// Keep the P-invariants; only the T count is lost.
		return res
	}
	res.tInvariants = len(tvs)
	return res
}

// incidenceMatrix derives the (activity, case) columns and the set of places
// pinned out of the invariant space by non-constant gates. ok is false when
// a gate transform panicked at every probe base, leaving its written-place
// set unknown.
func incidenceMatrix(cm *san.CompiledModel) (cols []incidenceColumn, pinned []bool, ok bool) {
	model := cm.Model()
	nPlaces := model.NumPlaces()
	pinned = make([]bool, nPlaces)
	probe := san.NewProbe(cm.InitialMarking())

	// gate adds transform f's constant token delta to eff, or pins the
	// places f touches when its delta varies by marking, and reports which
	// (exact). A transform that panics at some bases is marking-dependent in
	// a way probing cannot pin down, so it counts as varying. known is false
	// when f panicked at every base.
	gate := func(f san.GateFunc, eff []int64) (exact, known bool) {
		e := probe.GateEffect(f)
		switch {
		case e.PanickedAll:
			return false, false
		case !e.Constant || e.PanickedSome:
			for pi, t := range e.Touched {
				pinned[pi] = pinned[pi] || t
			}
			return false, true
		}
		for pi, d := range e.Delta {
			eff[pi] += int64(d)
		}
		return true, true
	}

	for _, a := range model.Activities() {
		// The input side is shared by every case of the activity.
		base := make([]int64, nPlaces)
		baseExact := true
		for _, arc := range a.InputArcs() {
			base[arc.Place.Index()] -= int64(arc.Mult)
		}
		for _, g := range a.InputGates() {
			if g.Transform == nil {
				continue
			}
			exact, known := gate(g.Transform, base)
			if !known {
				return nil, nil, false
			}
			baseExact = baseExact && exact
		}

		cases := a.Cases()
		if len(cases) == 0 {
			cols = append(cols, incidenceColumn{effect: base, exact: baseExact})
		}
		for _, c := range cases {
			eff := append([]int64(nil), base...)
			exact := baseExact
			for _, arc := range c.OutputArcs {
				eff[arc.Place.Index()] += int64(arc.Mult)
			}
			for _, og := range c.OutputGates {
				if og.Transform == nil {
					continue
				}
				ex, known := gate(og.Transform, eff)
				if !known {
					return nil, nil, false
				}
				exact = exact && ex
			}
			cols = append(cols, incidenceColumn{effect: eff, exact: exact})
		}
	}
	return cols, pinned, true
}

// farkasRow is one row of the Farkas tableau: the remaining effect part d
// and the accumulated coefficient part y.
type farkasRow struct {
	d []int64
	y []int64
}

// farkas computes the minimal generating set of the nonnegative left null
// space of the matrix whose rows are the d parts, returning the y parts of
// the all-zero-d rows. ok is false when the tableau exceeds maxRows.
func farkas(rows []farkasRow, maxRows int) (invariants [][]int64, ok bool) {
	if len(rows) == 0 {
		return nil, true
	}
	nCols := len(rows[0].d)
	for j := 0; j < nCols; j++ {
		var zero, pos, neg []farkasRow
		for _, r := range rows {
			switch {
			case r.d[j] == 0:
				zero = append(zero, r)
			case r.d[j] > 0:
				pos = append(pos, r)
			default:
				neg = append(neg, r)
			}
		}
		if len(zero)+len(pos)*len(neg) > maxRows {
			return nil, false
		}
		next := zero
		for _, rp := range pos {
			for _, rn := range neg {
				comb, fits := combineRows(rp, rn, j)
				if !fits {
					return nil, false
				}
				next = append(next, comb)
			}
		}
		rows = next
	}
	for _, r := range rows {
		zero := true
		for _, c := range r.y {
			if c != 0 {
				zero = false
				break
			}
		}
		if !zero {
			invariants = append(invariants, r.y)
		}
	}
	sort.Slice(invariants, func(i, j int) bool {
		for k := range invariants[i] {
			if invariants[i][k] != invariants[j][k] {
				return invariants[i][k] < invariants[j][k]
			}
		}
		return false
	})
	return invariants, true
}

// farkasOverflowLimit aborts the tableau before int64 arithmetic can wrap.
const farkasOverflowLimit = int64(1) << 40

// combineRows forms the nonnegative combination of a positive and a negative
// row that cancels column j, normalized by the gcd of all entries. fits is
// false on overflow risk.
func combineRows(rp, rn farkasRow, j int) (farkasRow, bool) {
	a := rp.d[j]  // > 0
	b := -rn.d[j] // > 0
	g := gcd64(a, b)
	a, b = a/g, b/g
	comb := farkasRow{d: make([]int64, len(rp.d)), y: make([]int64, len(rp.y))}
	g = 0
	mix := func(dst, x, y []int64) bool {
		for i := range dst {
			v := b*x[i] + a*y[i]
			if v > farkasOverflowLimit || v < -farkasOverflowLimit {
				return false
			}
			dst[i] = v
			g = gcd64(g, abs64(v))
		}
		return true
	}
	if !mix(comb.d, rp.d, rn.d) || !mix(comb.y, rp.y, rn.y) {
		return farkasRow{}, false
	}
	if g > 1 {
		for i := range comb.d {
			comb.d[i] /= g
		}
		for i := range comb.y {
			comb.y[i] /= g
		}
	}
	return comb, true
}

func gcd64(a, b int64) int64 {
	a, b = abs64(a), abs64(b)
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
