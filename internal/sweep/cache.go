package sweep

import (
	"sync"

	"repro/internal/san"
	"repro/internal/statespace"
)

// This file is the solve cache behind the sweep's analytic tier. A sweep
// point's certification cascade and transient solve depend only on the
// model abe.Build composes from the point's abe.Config and on the mission
// time, solver cascade and fit tolerance — and those three are fixed for the
// whole of one Run — never on the point's label, seed, or position. Points
// sharing a Config (design alternatives swept under common random numbers,
// the analytic half of cross-check twins) therefore share one computation.
// The cache memoizes the full outcome: the analytic rewards when the solve
// succeeded, or the certificate/refusal evidence when the point must
// simulate.
//
// Determinism contract (see docs/determinism.md): a cache hit returns the
// exact object the miss computed, so a hit is byte-identical to a recompute
// in every report; and the per-point "hit"/"miss" labels are assigned in
// point order as the entries are created — never by execution timing — so
// reports are byte-identical at any Parallelism.

// Cache labels recorded in Solver.Cache.
const (
	CacheMiss = "miss"
	CacheHit  = "hit"
)

// solveEntry is one memoized outcome. The once gate gives once-per-entry
// execution: duplicate in-flight points block on the first computation
// instead of racing it.
type solveEntry struct {
	once    sync.Once
	rewards map[string]float64 // non-nil iff the point is answered analytically
	solver  Solver             // method, reasons, certificate evidence
	err     error              // structural failure of a rewrite pass; aborts the sweep
}

// solvePoint runs the certification cascade (statespace.CertifyCascade) and
// the transient solve for one compiled model. Run executes it once per cache
// entry. A nil rewards map with a nil error means the point must simulate,
// with the evidence in the returned Solver; the cascade's rewrite passes
// leave cm untouched for that simulation.
func solvePoint(cm *san.CompiledModel, mission, fitTol float64) (map[string]float64, Solver, error) {
	var out Solver
	gen, cert, err := statespace.CertifyCascade(cm, fitTol, statespace.Options{})
	if err != nil {
		return nil, out, err
	}
	out.Certificate = &cert
	if !cert.Certified() {
		out.Method = MethodSimulation
		out.Reasons = cert.Refusals
		return nil, out, nil
	}
	rewards, err := gen.SolveTransient(mission)
	if err != nil {
		out.Method = MethodSimulation
		out.Reasons = []string{err.Error()}
		return nil, out, nil
	}
	if len(cert.Approximations) > 0 {
		out.Method = MethodUniformizationApprox
	} else {
		out.Method = MethodUniformization
	}
	return rewards, out, nil
}
