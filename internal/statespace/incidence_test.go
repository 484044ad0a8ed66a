package statespace_test

import (
	"testing"

	"repro/internal/san"
	"repro/internal/statespace"
)

// This file pins how the incidence matrix classifies gate transforms, which
// it learns by running them on the probe base family: a gate with the same
// token delta at every base joins the invariants, a marking-dependent gate
// pins the places it touches, a gate that panics at some bases is
// marking-dependent, and one that panics at every base leaves its effect
// unknown, so no invariant is reported at all.

// certifyGateNet compiles and certifies the net build adds to a fresh model,
// requiring a certificate, and returns it with its place bounds by name.
func certifyGateNet(t *testing.T, build func(m *san.Model)) (san.Certificate, map[string]san.PlaceBound) {
	t.Helper()
	m := san.NewModel("gate-net")
	build(m)
	cm, err := san.Compile(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, cert := statespace.Certify(cm, statespace.Options{})
	if !cert.Certified() {
		t.Fatalf("refused: %s", cert.Summary())
	}
	bounds := make(map[string]san.PlaceBound, len(cert.PlaceBounds))
	for _, pb := range cert.PlaceBounds {
		bounds[pb.Place] = pb
	}
	return cert, bounds
}

// requireBound checks one place's certified bound and proof.
func requireBound(t *testing.T, bounds map[string]san.PlaceBound, place string, bound int, proof string) {
	t.Helper()
	pb, ok := bounds[place]
	if !ok {
		t.Fatalf("no bound for place %q", place)
	}
	if pb.Bound != bound || pb.Proof != proof {
		t.Errorf("place %q: bound %d proof %q (invariant %q), want %d via %s", place, pb.Bound, pb.Proof, pb.Invariant, bound, proof)
	}
}

// gateShuttle adds a two-place shuttle: "move" takes a token from a and
// puts one on b through the output gate transform, and "back" returns it
// with plain arcs. With a constant +1 gate, a + b is conserved.
func gateShuttle(t *testing.T, m *san.Model, initial int, transform func(a, b *san.Place) san.GateFunc) {
	a := m.AddPlace("a", initial)
	b := m.AddPlace("b", 0)
	m.AddTimedActivity("move", mustExpRate(t, 1)).AddInputArc(a, 1).
		AddOutputGate(&san.OutputGate{Name: "put", Transform: transform(a, b)})
	m.AddTimedActivity("back", mustExpRate(t, 2)).AddInputArc(b, 1).AddOutputArc(a, 1)
}

// TestIncidenceConstantGateJoinsInvariant: a gate whose token delta is the
// same at every probe base contributes that delta to the incidence column,
// so the places it writes are bounded by a P-invariant.
func TestIncidenceConstantGateJoinsInvariant(t *testing.T) {
	cert, bounds := certifyGateNet(t, func(m *san.Model) {
		gateShuttle(t, m, 2, func(a, b *san.Place) san.GateFunc {
			return func(mw san.MarkingWriter) { mw.Add(b, 1) }
		})
	})
	if cert.PInvariants != 1 {
		t.Errorf("PInvariants = %d, want 1", cert.PInvariants)
	}
	requireBound(t, bounds, "a", 2, san.ProofPInvariant)
	requireBound(t, bounds, "b", 2, san.ProofPInvariant)
	if got := bounds["b"].Invariant; got != "a + b = 2" {
		t.Errorf("b's invariant = %q, want %q", got, "a + b = 2")
	}
}

// TestIncidenceMarkingDependentGatePins: a gate whose delta varies by
// marking pins the places it touches out of the invariant space, so their
// bounds come from exploration, while an invariant over unrelated places
// survives.
func TestIncidenceMarkingDependentGatePins(t *testing.T) {
	cert, bounds := certifyGateNet(t, func(m *san.Model) {
		gateShuttle(t, m, 1, func(a, b *san.Place) san.GateFunc {
			// Setting b to 1 adds 1 at an empty b and nothing at b = 1.
			return func(mw san.MarkingWriter) { mw.SetTokens(b, 1) }
		})
		c := m.AddPlace("c", 1)
		d := m.AddPlace("d", 0)
		m.AddTimedActivity("fail", mustExpRate(t, 0.5)).AddInputArc(c, 1).AddOutputArc(d, 1)
		m.AddTimedActivity("repair", mustExpRate(t, 3)).AddInputArc(d, 1).AddOutputArc(c, 1)
	})
	if cert.PInvariants != 1 {
		t.Errorf("PInvariants = %d, want 1", cert.PInvariants)
	}
	requireBound(t, bounds, "a", 1, san.ProofExploration)
	requireBound(t, bounds, "b", 1, san.ProofExploration)
	requireBound(t, bounds, "c", 1, san.ProofPInvariant)
	requireBound(t, bounds, "d", 1, san.ProofPInvariant)
	if got := bounds["d"].Invariant; got != "c + d = 1" {
		t.Errorf("d's invariant = %q, want %q", got, "c + d = 1")
	}
}

// TestIncidencePartialPanicIsNonConstant: a gate that adds 1 wherever it
// completes but panics at the bases where b holds 2 tokens (a marking no
// firing reaches) is marking-dependent, so the shuttle's places lose the
// invariant the constant gate gives them.
func TestIncidencePartialPanicIsNonConstant(t *testing.T) {
	cert, bounds := certifyGateNet(t, func(m *san.Model) {
		gateShuttle(t, m, 1, func(a, b *san.Place) san.GateFunc {
			return func(mw san.MarkingWriter) {
				if mw.Tokens(b) == 2 {
					panic("b never holds 2 tokens when move completes")
				}
				mw.Add(b, 1)
			}
		})
	})
	if cert.PInvariants != 0 {
		t.Errorf("PInvariants = %d, want 0", cert.PInvariants)
	}
	requireBound(t, bounds, "a", 1, san.ProofExploration)
	requireBound(t, bounds, "b", 1, san.ProofExploration)
}

// TestIncidencePanicAtEveryBaseSkipsInvariants: x and y start equal, so they
// are equal at every probe base, and the gate panics whenever they are; no
// firing reaches such a marking, because "go" consumes x first. The gate's
// written places are unknown, so invariants are skipped: none is reported,
// and every bound rests on exploration. The same net with a gate that never
// panics has two invariants.
func TestIncidencePanicAtEveryBaseSkipsInvariants(t *testing.T) {
	for _, panics := range []bool{false, true} {
		cert, bounds := certifyGateNet(t, func(m *san.Model) {
			x := m.AddPlace("x", 1)
			y := m.AddPlace("y", 1)
			z := m.AddPlace("z", 0)
			m.AddTimedActivity("go", mustExpRate(t, 1)).AddInputArc(x, 1).
				AddOutputGate(&san.OutputGate{Name: "put", Transform: func(mw san.MarkingWriter) {
					if panics && mw.Tokens(x) == mw.Tokens(y) {
						panic("x and y are never equal when go completes")
					}
					mw.Add(z, 1)
				}})
			m.AddTimedActivity("back", mustExpRate(t, 2)).AddInputArc(z, 1).AddOutputArc(x, 1)
		})
		if !panics {
			// y = 1 and x + z = 1.
			if cert.PInvariants != 2 {
				t.Errorf("without the panic: PInvariants = %d, want 2", cert.PInvariants)
			}
			continue
		}
		if cert.PInvariants != 0 {
			t.Errorf("PInvariants = %d, want 0", cert.PInvariants)
		}
		for _, place := range []string{"x", "y", "z"} {
			requireBound(t, bounds, place, 1, san.ProofExploration)
		}
	}
}
