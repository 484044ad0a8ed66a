package statespace

import "repro/internal/san"

// CertifyReference is Certify on the sequential reference explorer.
func CertifyReference(cm *san.CompiledModel, opts Options) (*Generator, san.Certificate) {
	return certifyWith(cm, opts, exploreBaseline)
}

// SolveTransientReference is SolveTransient on the sequential scatter
// solver.
func (g *Generator) SolveTransientReference(T float64) (map[string]float64, error) {
	return g.solveTransientBaseline(T)
}
