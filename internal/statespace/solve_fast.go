package statespace

import (
	"fmt"
	"math"
	"sync"
)

// This file holds SolveTransient and its kernels: a gather-oriented
// (transposed) sparse matrix–vector product, run on the caller's goroutine
// over fixed-size row chunks. Each step folds the chunks in index order,
// and the L1 step difference that decides the steady-state stop is the sum
// of per-chunk partials in chunk order, so its bits — and therefore the
// stopping step and π's bits — depend on the chunk size alone.
//
// The gather layout stores P transposed: row t lists the source classes s
// with an edge s→t, so dst[t] = v[t]·stay[t] + Σ_s v[s]·P[s,t] is a single
// accumulation that runs in a fixed (ascending-source) order. The rows and
// columns are one projection's classes (project.go); on the identity
// projection they are the generator's states.

// solveChunkRows is the fixed row-chunk size of the series' step.
const solveChunkRows = 4096

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

// buildGather assembles p's transposed uniformized matrix at rate lambda,
// straight from the representatives' cross-class edges. Entries of
// destination row d are produced by scanning source classes in ascending
// order, so the row's accumulation order is deterministic by construction.
func (g *Generator) buildGather(p *projection, lambda float64) *gatherCSR {
	n := len(p.reps)
	m := &gatherCSR{rowStart: make([]int32, n+1), stay: make([]float64, n)}
	counts := make([]int32, n)
	for c, r := range p.reps {
		exit := 0.0
		for _, e := range g.out(int(r)) {
			d := p.classOf[e.to]
			if d == int32(c) {
				continue
			}
			exit += e.rate
			counts[d]++
		}
		m.stay[c] = 1 - exit/lambda
	}
	total := int32(0)
	for d := 0; d < n; d++ {
		m.rowStart[d] = total
		total += counts[d]
	}
	m.rowStart[n] = total
	m.srcIdx = make([]int32, total)
	m.val = make([]float64, total)
	pos := make([]int32, n)
	copy(pos, m.rowStart[:n])
	for c, r := range p.reps {
		for _, e := range g.out(int(r)) {
			d := p.classOf[e.to]
			if d == int32(c) {
				continue
			}
			k := pos[d]
			pos[d] = k + 1
			m.srcIdx[k] = int32(c)
			m.val[k] = e.rate / lambda
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
// of one simulated replication's Result.Rewards, in expectation. It runs the
// series below once per projection of the chain (project.go), each on its
// own lumped chain, in the certificate's projection order; a chain with one
// component, or one whose lumping failed the check, is solved whole.
//
// With Λ an upper bound on the total exit rate, P = I + Q/Λ is stochastic
// and
//
//	π(T)  = Σ_n pois(n; ΛT) · v_n,            v_n = v_{n-1} P
//	L_s(T) = ∫₀ᵀ π_s(t) dt = (1/Λ) Σ_n P(N > n) · v_n[s]
//
// (the second from ∫₀ᵀ pois(n; Λt) dt = P(N > n)/Λ with N ~ Poisson(ΛT)).
// The series stops at its truncation point R, the smallest n with
// P(N > n) < 1e-12, computed once from the Poisson upper tail
// (poissonTruncation), or earlier at steady-state detection. A truncation
// point at the cap of int(ΛT + 12√(ΛT+1) + 50) terms, where the tail is
// below 1e-30, is an ErrSolve. The running sum of the log-space weights
// cannot tell where the tail ends: rounding holds 1 − Σ weights between
// 5.7e-12 and 3.7e-11 on the shipped chains, above the tolerance. Once v_n
// stops changing (the embedded chain reached stationarity, L1 step below
// 1e-13), every remaining term multiplies the same vector, so the rest of
// the series collapses to the leftover probability mass (for π) and the
// leftover expected time (for L). The identity Σ_m P(N > m)/Λ = E[N]/Λ = T
// gives that time in closed form. The step is not a distance to π, so the
// collapse carries no stated bound; a chain that does not mix by T runs to
// R.
//
// The products run on the fused gather kernel with pooled vectors, on the
// caller's goroutine.
func (g *Generator) SolveTransient(T float64) (map[string]float64, error) {
	return g.solve(T, g.projections)
}

// solve runs the series on each projection, writing each one's rewards into
// one map.
func (g *Generator) solve(T float64, projs []projection) (map[string]float64, error) {
	if !(T > 0) || math.IsInf(T, 0) {
		return nil, fmt.Errorf("%w: mission time %v", ErrSolve, T)
	}
	out := make(map[string]float64, len(g.cm.Rewards()))
	for i := range projs {
		if _, err := g.solveProjection(&projs[i], T, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// seriesTol is the Poisson mass the series may leave out: it stops at the
// first n with P(N > n) below it.
const seriesTol = 1e-12

// poissonTruncation returns the smallest n with P(N > n) < tol for
// N ~ Poisson(lt), or maxN when P(N > maxN−1) is still at least tol. It sums
// the upper tail from n = maxN down, each term exp(−lt + k·ln lt −
// ln k!) in log space, smallest first. dist.RegularizedGammaP(n+1, lt) is
// the same tail, but its 500-term series drifts above lt ≈ 1e5 (relative
// error 4e-6 at 1e5, 2.5% at 1e6).
func poissonTruncation(lt, tol float64, maxN int) int {
	logLt := math.Log(lt)
	tail := 0.0
	for k := maxN; k > 0; k-- {
		lf, _ := math.Lgamma(float64(k + 1))
		tail += math.Exp(-lt + float64(k)*logLt - lf) // now P(N > k−1)
		if tail >= tol {
			return k
		}
	}
	return 0
}

// solveProjection runs the uniformization series on p's lumped chain, folds
// the result into p's rewards, and returns the number of sweeps (products
// v·P) it ran.
func (g *Generator) solveProjection(p *projection, T float64, out map[string]float64) (int, error) {
	n := len(p.reps)
	pi := getVec(n)      // π(T)
	sojourn := getVec(n) // L(T)
	defer putVec(pi)
	defer putVec(sojourn)
	for _, sp := range g.Initial {
		pi[p.classOf[sp.State]] += sp.Prob
	}

	lambda := g.maxExitRate(p)
	if lambda == 0 {
		// No timed behavior: the chain sits in its initial distribution.
		for c, mass := range pi {
			sojourn[c] = mass * T
		}
		return 0, g.evalRewards(p, pi, sojourn, T, out)
	}
	lt := lambda * T
	if lt > maxUniformizationConstant {
		return 0, fmt.Errorf("%w: uniformization constant %v too large", ErrSolve, lt)
	}
	maxIter := int(lt + 12*math.Sqrt(lt+1) + 50)
	trunc := max(poissonTruncation(lt, seriesTol, maxIter), 1)
	if trunc >= maxIter {
		return 0, fmt.Errorf("%w: Poisson tail of ΛT = %v not below %g within %d terms", ErrSolve, lt, seriesTol, maxIter)
	}

	P := g.buildGather(p, lambda)
	v := getVec(n)
	next := getVec(n)
	defer putVec(v)
	defer putVec(next)
	for _, sp := range g.Initial {
		v[p.classOf[sp.State]] += sp.Prob
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

	const ssTol = 1e-13
	it := 1
	for ; ; it++ {
		logWeight += math.Log(lt) - math.Log(float64(it))
		w = math.Exp(logWeight)
		accumulated += w
		tail := 1 - accumulated
		if tail < 0 {
			tail = 0
		}
		tl = tail / lambda
		diff := 0.0
		for lo := 0; lo < n; lo += solveChunkRows {
			hi := min(lo+solveChunkRows, n)
			P.stepRange(next, v, lo, hi)
			diff += fusedUpdate(next, v, pi, sojourn, w, tl, lo, hi)
		}
		usedTime += tl
		v, next = next, v
		if it == trunc {
			break
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
	return it, g.evalRewards(p, pi, sojourn, T, out)
}
