package statespace

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/fanout"
)

// This file holds SolveTransient and its kernels: a gather-oriented
// (transposed) sparse matrix–vector product partitioned into fixed-size row
// chunks that any number of workers can execute, with every order-sensitive
// reduction — per-chunk L1 partials — folded in chunk-index order. The chunk
// size is a constant, never derived from the worker count, so the
// floating-point result is bit-identical at every parallelism, including 1.
//
// The gather layout stores P transposed: row t lists the source states s with
// an edge s→t, so dst[t] = v[t]·stay[t] + Σ_s v[s]·P[s,t] is a single
// accumulation the computing worker owns — no scatter conflicts, no atomics,
// and each row's sum runs in a fixed (ascending-source) order.

// solveChunkRows is the fixed row-partition size of the parallel kernels.
const solveChunkRows = 4096

// workers resolves the generator's worker count.
func (g *Generator) workers() int {
	if g.par > 0 {
		return g.par
	}
	return runtime.GOMAXPROCS(0)
}

// gatherCSR is the uniformized matrix P = I + Q/Λ stored transposed for
// gather-style products. Parallel edges between the same state pair stay
// separate entries (their contributions sum in fixed source order), and
// self-loops are excluded from the dynamics (they do not move probability);
// they stay in the impulse flux.
type gatherCSR struct {
	rowStart []int32 // per destination state: start of its source entries
	srcIdx   []int32
	val      []float64
	stay     []float64 // diagonal: 1 - exit_s/Λ
}

// buildGather assembles the transposed uniformized matrix at rate lambda.
// Entries of destination row t are produced by scanning sources in ascending
// state order, so the row's accumulation order is deterministic by
// construction.
func (g *Generator) buildGather(lambda float64) *gatherCSR {
	n := len(g.States)
	m := &gatherCSR{rowStart: make([]int32, n+1), stay: make([]float64, n)}
	counts := make([]int32, n)
	for s := 0; s < n; s++ {
		exit := 0.0
		for _, t := range g.Transitions[s] {
			if t.To == s {
				continue
			}
			exit += t.Rate
			counts[t.To]++
		}
		m.stay[s] = 1 - exit/lambda
	}
	total := int32(0)
	for t := 0; t < n; t++ {
		m.rowStart[t] = total
		total += counts[t]
	}
	m.rowStart[n] = total
	m.srcIdx = make([]int32, total)
	m.val = make([]float64, total)
	pos := make([]int32, n)
	copy(pos, m.rowStart[:n])
	for s := 0; s < n; s++ {
		for _, t := range g.Transitions[s] {
			if t.To == s {
				continue
			}
			k := pos[t.To]
			pos[t.To] = k + 1
			m.srcIdx[k] = int32(s)
			m.val[k] = t.Rate / lambda
		}
	}
	return m
}

// stepRange computes rows [lo,hi) of dst = v·P. The row sum runs on four
// independent accumulators so consecutive products do not serialize on one
// floating-point add chain (the add latency, not the loads, bounds the naive
// loop); the lane assignment and the final combine order are fixed functions
// of the row, so the result is deterministic — it just associates the sum
// differently than a strict left fold.
func (m *gatherCSR) stepRange(dst, v []float64, lo, hi int) {
	rowStart := m.rowStart
	for t := lo; t < hi; t++ {
		a, b := rowStart[t], rowStart[t+1]
		src := m.srcIdx[a:b]
		val := m.val[a:b][:len(src)]
		var s0, s1, s2, s3 float64
		k := 0
		for ; k+4 <= len(src); k += 4 {
			s0 += v[src[k]] * val[k]
			s1 += v[src[k+1]] * val[k+1]
			s2 += v[src[k+2]] * val[k+2]
			s3 += v[src[k+3]] * val[k+3]
		}
		acc := v[t] * m.stay[t]
		for ; k < len(src); k++ {
			acc += v[src[k]] * val[k]
		}
		dst[t] = acc + ((s0 + s2) + (s1 + s3))
	}
}

// nChunksFor returns the number of fixed-size row chunks covering n rows.
func nChunksFor(n int) int {
	return (n + solveChunkRows - 1) / solveChunkRows
}

// vecPool recycles iteration vectors across solves. Vectors are zero-filled
// on the way out, so reuse cannot leak state between solves.
var vecPool sync.Pool

func getVec(n int) []float64 {
	if p, ok := vecPool.Get().(*[]float64); ok && cap(*p) >= n {
		v := (*p)[:n]
		clear(v)
		return v
	}
	return make([]float64, n)
}

func putVec(v []float64) {
	v = v[:cap(v)]
	vecPool.Put(&v)
}

// fusedUpdate folds one uniformization term into the accumulators for rows
// [lo,hi): pi += w·next, sojourn += tl·next, returning the L1 difference
// between next and the previous iterate v for steady-state detection. The
// w == 0 branch (fully underflowed Poisson weight — the entire pre-mode ramp
// of a large-ΛT series) skips the pi pass; adding w·x = +0.0 to a
// non-negative accumulator is exact, so the skip is bit-identical.
func fusedUpdate(next, v, pi, sojourn []float64, w, tl float64, lo, hi int) float64 {
	diff := 0.0
	if w == 0 {
		for s := lo; s < hi; s++ {
			x := next[s]
			sojourn[s] += tl * x
			diff += math.Abs(x - v[s])
		}
		return diff
	}
	for s := lo; s < hi; s++ {
		x := next[s]
		pi[s] += w * x
		sojourn[s] += tl * x
		diff += math.Abs(x - v[s])
	}
	return diff
}

// SolveTransient computes every reward variable at mission time T by
// uniformization and returns them keyed by reward name — the exact analogue
// of one simulated replication's Result.Rewards, in expectation. With Λ an
// upper bound on the total exit rate, P = I + Q/Λ is stochastic and
//
//	π(T)  = Σ_n pois(n; ΛT) · v_n,            v_n = v_{n-1} P
//	L_s(T) = ∫₀ᵀ π_s(t) dt = (1/Λ) Σ_n P(N > n) · v_n[s]
//
// (the second from ∫₀ᵀ pois(n; Λt) dt = P(N > n)/Λ with N ~ Poisson(ΛT)).
// The series stops when its Poisson tail drops below 1e-12, or earlier on
// steady-state detection: once v_n stops changing (the embedded chain
// reached stationarity, L1 step below 1e-13), every remaining term
// multiplies the same vector, so the rest of the series collapses to the
// leftover probability mass (for π) and the leftover expected time (for L).
// The identity Σ_m P(N > m)/Λ = E[N]/Λ = T gives that time in closed form.
// Missions are typically many mixing times long (ΛT in the tens of
// thousands for an 8760 h year), so the collapse turns O(ΛT) matrix–vector
// products into O(Λ·t_mix).
//
// The products run on the fused gather kernel with pooled vectors, and the
// result is bit-identical at every parallelism.
func (g *Generator) SolveTransient(T float64) (map[string]float64, error) {
	if !(T > 0) || math.IsInf(T, 0) {
		return nil, fmt.Errorf("%w: mission time %v", ErrSolve, T)
	}
	n := len(g.States)
	par := g.workers()
	pi := getVec(n)      // π(T)
	sojourn := getVec(n) // L(T)
	defer putVec(pi)
	defer putVec(sojourn)
	for _, sp := range g.Initial {
		pi[sp.State] += sp.Prob
	}

	lambda := g.maxExitRate()
	if lambda == 0 {
		// No timed behavior: the chain sits in its initial distribution.
		for s, p := range pi {
			sojourn[s] = p * T
		}
		return g.evalRewards(pi, sojourn, T)
	}
	lt := lambda * T
	if lt > maxUniformizationConstant {
		return nil, fmt.Errorf("%w: uniformization constant %v too large", ErrSolve, lt)
	}

	P := g.buildGather(lambda)
	v := getVec(n)
	next := getVec(n)
	defer putVec(v)
	defer putVec(next)
	for _, sp := range g.Initial {
		v[sp.State] += sp.Prob
	}

	// Iteratively updated Poisson weights in log space (the leading weights
	// underflow for large ΛT). usedTime tracks Σ tail_m/Λ added to the
	// sojourn vector so far, so the collapse can add the remaining T −
	// usedTime.
	logWeight := -lt
	w := math.Exp(logWeight)
	accumulated := w
	tl := (1 - accumulated) / lambda
	for s := range v {
		pi[s] = w * v[s]
		sojourn[s] = tl * v[s]
	}
	usedTime := tl

	const tol = 1e-12
	const ssTol = 1e-13
	maxIter := int(lt + 12*math.Sqrt(lt+1) + 50)
	diffs := make([]float64, nChunksFor(n))
	for it := 1; it <= maxIter; it++ {
		logWeight += math.Log(lt) - math.Log(float64(it))
		w = math.Exp(logWeight)
		accumulated += w
		tail := 1 - accumulated
		if tail < 0 {
			tail = 0
		}
		tl = tail / lambda
		wTerm, tlTerm := w, tl
		fanout.For(len(diffs), par, func(_, c int) {
			lo := c * solveChunkRows
			hi := min(lo+solveChunkRows, n)
			P.stepRange(next, v, lo, hi)
			diffs[c] = fusedUpdate(next, v, pi, sojourn, wTerm, tlTerm, lo, hi)
		})
		usedTime += tl
		v, next = next, v
		if it > int(lt) && 1-accumulated < tol {
			break
		}
		diff := 0.0
		for _, d := range diffs {
			diff += d
		}
		if diff < ssTol {
			// Steady-state collapse: every remaining term multiplies the
			// same vector.
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
	return g.evalRewards(pi, sojourn, T)
}
