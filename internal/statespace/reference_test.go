package statespace

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/san"
)

// This file holds the sequential reference twins of the explorer and the
// transient solver. They are the oracle of the differential tests: a plain
// BFS interning markings in a string-keyed map, and uniformization on a
// scatter-form CSR matrix. export_test.go exposes them as CertifyReference
// and Generator.SolveTransientReference.

// refExplorer is the reference explorer's state over the explorer's shared
// semantic core (firing and vanishing closure) and chain storage: the
// string-keyed state index, the unpacked markings, and the first-seen rate
// map.
type refExplorer struct {
	*explorer
	index map[string]int
	marks [][]int

	// firstRate pins the rate an activity showed when first seen enabled; a
	// different rate in another state without reactivation breaks the CTMC
	// (the clock is not resampled, so the process is not memoryless).
	firstRate map[int]float64
}

// exploreBaseline is the reference BFS: it expands one state at a time, in
// index order, interning every successor as soon as it is produced.
func exploreBaseline(cm *san.CompiledModel, opts Options) (*Generator, exploreResult) {
	ex := &refExplorer{
		explorer:  newExplorer(cm, opts, &symmetry{}),
		index:     make(map[string]int),
		firstRate: make(map[int]float64),
	}
	gen := &Generator{cm: cm}
	res := exploreResult{}

	// Close the initial marking: it may itself be vanishing.
	initOutcomes, err := ex.closeVanishing(cm.InitialMarking(), 1, make([]float64, ex.nRewards))
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

	for next := 0; next < len(ex.marks); next++ {
		if err := ex.expand(next); err != nil {
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
	}

	ex.finish(gen, &res)
	return gen, res
}

// overBudget is set by intern when the state budget is exhausted.
func (ex *refExplorer) intern(mark []int) (int, bool) {
	key := stateKey(mark)
	if si, ok := ex.index[key]; ok {
		return si, true
	}
	if len(ex.marks) >= ex.maxStates {
		ex.overBudget = true
		return 0, false
	}
	si := len(ex.marks)
	ex.index[key] = si
	ex.marks = append(ex.marks, append([]int(nil), mark...))
	ex.packBuf = packMarking(ex.packBuf[:0], mark)
	ex.idx.insert(ex.packBuf, hashBytes(ex.packBuf))
	for pi, v := range mark {
		if v > ex.observedMax[pi] {
			ex.observedMax[pi] = v
		}
	}
	return si, true
}

// expand generates the outgoing edges of tangible state si.
func (ex *refExplorer) expand(si int) error {
	mark := ex.marks[si]
	for _, tr := range ex.timedRefs {
		a := tr.a
		enabled, err := activityEnabled(a, markingVec(mark))
		if err != nil {
			return err
		}
		if !enabled {
			continue
		}
		rate, err := activityRate(a, markingVec(mark))
		if err != nil {
			return nonMemorylessError(err.Error())
		}
		if prev, seen := ex.firstRate[a.Index()]; seen {
			if prev != rate && !a.Reactivation() {
				return nonMemorylessError(fmt.Sprintf(
					"activity %q: marking-dependent rate (%g vs %g) without reactivation", a.Name(), rate, prev))
			}
		} else {
			ex.firstRate[a.Index()] = rate
		}
		if rate <= 0 || math.IsInf(rate, 0) || math.IsNaN(rate) {
			return fmt.Errorf("activity %q: rate %g at state %d", a.Name(), rate, si)
		}
		branches, err := ex.fireBranches(mark, a)
		if err != nil {
			return err
		}
		for _, b := range branches {
			outs, err := ex.closeVanishing(b.mark, b.prob, b.imp)
			if err != nil {
				return err
			}
			for _, o := range outs {
				ti, ok := ex.intern(o.mark)
				if !ok {
					return nil // budget flag set; caller stops
				}
				imp := ex.imps.intern(o.imp)
				ex.noteChanges(mark, o.mark, imp)
				ex.edges.add(edge{to: int32(ti), imp: imp, rate: rate * o.prob})
			}
		}
	}
	ex.edges.endState()
	return nil
}

// stateKey encodes a marking vector as a map key.
func stateKey(mark []int) string {
	buf := make([]byte, 8*len(mark))
	for i, v := range mark {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(int64(v)))
	}
	return string(buf)
}

// csr is the uniformized transition matrix P = I + Q/Λ in compressed sparse
// row form, with self-loop edges excluded from the dynamics (they do not
// move probability) but retained in the impulse flux.
type csr struct {
	rowStart []int
	colIdx   []int
	val      []float64
	stay     []float64 // diagonal: 1 - exit_s/Λ
}

// step computes dst = v·P.
func (m *csr) step(dst, v []float64) {
	for i := range dst {
		dst[i] = v[i] * m.stay[i]
	}
	for s := range m.stay {
		if v[s] == 0 {
			continue
		}
		for k := m.rowStart[s]; k < m.rowStart[s+1]; k++ {
			dst[m.colIdx[k]] += v[s] * m.val[k]
		}
	}
}

// buildCSR merges the generator's parallel edges into the uniformized matrix
// at rate lambda. Off-diagonal mass comes from edges that leave their
// state; the exit rate likewise excludes self-loops (a self-loop edge leaves
// the distribution unchanged).
func (g *Generator) buildCSR(lambda float64) *csr {
	n := len(g.States)
	m := &csr{rowStart: make([]int, n+1), stay: make([]float64, n)}
	for s := 0; s < n; s++ {
		m.rowStart[s] = len(m.colIdx)
		// Merge parallel edges per destination, preserving first-seen
		// destination order for deterministic accumulation.
		offset := map[int]int{}
		exit := 0.0
		for _, e := range g.out(s) {
			to := int(e.to)
			if to == s {
				continue
			}
			exit += e.rate
			if k, ok := offset[to]; ok {
				m.val[k] += e.rate / lambda
				continue
			}
			offset[to] = len(m.colIdx)
			m.colIdx = append(m.colIdx, to)
			m.val = append(m.val, e.rate/lambda)
		}
		m.stay[s] = 1 - exit/lambda
	}
	m.rowStart[n] = len(m.colIdx)
	return m
}

// solveTransientBaseline computes every reward variable at mission time T by
// uniformization and returns them keyed by reward name — the exact analogue
// of one simulated replication's Result.Rewards, in expectation. It is the
// sequential scatter reference that SolveTransient's gather kernels are
// compared against.
func (g *Generator) solveTransientBaseline(T float64) (map[string]float64, error) {
	if !(T > 0) || math.IsInf(T, 0) {
		return nil, fmt.Errorf("%w: mission time %v", ErrSolve, T)
	}
	n := len(g.States)
	id := g.identity()
	res := make(map[string]float64, len(g.cm.Rewards()))
	pi := make([]float64, n)      // π(T)
	sojourn := make([]float64, n) // L(T)
	for _, sp := range g.Initial {
		pi[sp.State] += sp.Prob
	}

	lambda := g.maxExitRate(&id)
	if lambda == 0 {
		// No timed behavior: the chain sits in its initial distribution.
		for s, p := range pi {
			sojourn[s] = p * T
		}
		if err := g.evalRewards(&id, pi, sojourn, T, res); err != nil {
			return nil, err
		}
		return res, nil
	}
	lt := lambda * T
	if lt > maxUniformizationConstant {
		return nil, fmt.Errorf("%w: uniformization constant %v too large", ErrSolve, lt)
	}

	P := g.buildCSR(lambda)
	v := make([]float64, n)
	for _, sp := range g.Initial {
		v[sp.State] += sp.Prob
	}
	next := make([]float64, n)

	// Iteratively updated Poisson weights in log space (the leading weights
	// underflow for large ΛT).
	logWeight := -lt // log PMF at n=0
	w := math.Exp(logWeight)
	accumulated := w
	out := make([]float64, n)
	for s := range v {
		out[s] = w * v[s]
		// P(N > 0) = 1 - w.
		sojourn[s] = (1 - accumulated) * v[s] / lambda
	}
	copy(pi, out)
	// usedTime tracks Σ tail_m/λ added to the sojourn vector so far; the
	// identity Σ_m P(N > m)/λ = E[N]/λ = T gives the remainder in closed
	// form when the iteration stops early.
	usedTime := (1 - accumulated) / lambda

	// The series stops at the Poisson truncation point, or earlier at
	// steady-state detection.
	maxIter := int(lt + 12*math.Sqrt(lt+1) + 50)
	trunc := max(poissonTruncation(lt, seriesTol, maxIter), 1)
	// Steady-state detection: once v_n stops changing (the embedded chain
	// reached stationarity within ssTol), every remaining Poisson term
	// multiplies the same vector, so the rest of the series collapses to the
	// leftover probability mass (for π) and leftover expected time (for L).
	// Missions are typically many mixing times long (ΛT in the tens of
	// thousands for an 8760 h year), so this turns O(ΛT) matrix-vector
	// products into O(Λ·t_mix).
	const ssTol = 1e-13
	for it := 1; it <= trunc; it++ {
		P.step(next, v)
		v, next = next, v
		logWeight += math.Log(lt) - math.Log(float64(it))
		w = math.Exp(logWeight)
		accumulated += w
		tail := 1 - accumulated
		if tail < 0 {
			tail = 0
		}
		for s := range v {
			pi[s] += w * v[s]
			sojourn[s] += tail * v[s] / lambda
		}
		usedTime += tail / lambda
		if it == trunc {
			break
		}
		diff := 0.0
		for s := range v {
			diff += math.Abs(v[s] - next[s])
		}
		if diff < ssTol {
			remMass := 1 - accumulated
			if remMass < 0 {
				remMass = 0
			}
			remTime := T - usedTime
			if remTime < 0 {
				remTime = 0
			}
			for s := range v {
				pi[s] += remMass * v[s]
				sojourn[s] += remTime * v[s]
			}
			break
		}
	}
	if err := g.evalRewards(&id, pi, sojourn, T, res); err != nil {
		return nil, err
	}
	return res, nil
}
