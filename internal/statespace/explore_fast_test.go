package statespace_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/abe"
	"repro/internal/dist"
	"repro/internal/san"
	"repro/internal/statespace"
)

// figure4FitTolerance is the tolerance the figure4 sweep fits MiniWeibull
// at (experiments.Figure4FitTolerance).
const figure4FitTolerance = 0.1

// buildMini composes a shipped mini configuration and compiles it as the
// certification cascade certifies it: as built, after san.ExpandPhases when
// expand is set, and after san.FitPhases at fitTol when fitTol > 0.
func buildMini(t *testing.T, cfg abe.Config, expand bool, fitTol float64) *san.CompiledModel {
	t.Helper()
	m := san.NewModel(cfg.Name)
	mp, err := abe.Build(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if expand {
		if m, _, err = san.ExpandPhases(m); err != nil {
			t.Fatal(err)
		}
	}
	if fitTol > 0 {
		if m, _, err = san.FitPhases(m, fitTol); err != nil {
			t.Fatal(err)
		}
	}
	cm, err := san.Compile(m, mp.Rewards())
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// chainFixture is one model the differential and golden tests explore, with
// the tangible state count and the SHA-256 digest of the state numbering
// (every token count in state order, as a little-endian uint64) of the chain
// Certify generates and of the flat chain the reference explorer generates.
// They differ only for a model Certify solves as a symmetric quotient.
type chainFixture struct {
	name       string
	states     int
	golden     string
	flatStates int
	flatGolden string
	build      func(t *testing.T) *san.CompiledModel
}

// chainFixtures are the hypercube fixture and the three shipped minis in the
// form the sweep solves them. MiniWeibull's three disks are exchangeable, so
// Certify generates its symmetric quotient.
var chainFixtures = []chainFixture{
	{"farm8", 256, "c4ad5665ce507fab4bd04e4f95bb3e4bc8a543d60056960d57949dd0b445d6a4",
		256, "c4ad5665ce507fab4bd04e4f95bb3e4bc8a543d60056960d57949dd0b445d6a4",
		func(t *testing.T) *san.CompiledModel { return buildComponentFarm(t, 8) }},
	{"MiniExponential", 1728, "5f777292ec346cb53e124044b11771da34e378d95e338f5de7321b3c7e465457",
		1728, "5f777292ec346cb53e124044b11771da34e378d95e338f5de7321b3c7e465457",
		func(t *testing.T) *san.CompiledModel { return buildMini(t, abe.MiniExponential(), false, 0) }},
	{"MiniErlang", 3456, "8a651d3490a0ecaf5e14b492cb89fa2423cede5b8dde64836ec75801e33d8440",
		3456, "8a651d3490a0ecaf5e14b492cb89fa2423cede5b8dde64836ec75801e33d8440",
		func(t *testing.T) *san.CompiledModel { return buildMini(t, abe.MiniErlang(), true, 0) }},
	{"MiniWeibull", 8640, "9c683e21185bea010a11dc29e86c0b5296c0dad3d4c1dbbd49067ac4a82be85c",
		27648, "21bc99d85549b38af4c464aa58c082f2949c4fcc34de1c49877e045a2f6ec145",
		func(t *testing.T) *san.CompiledModel {
			return buildMini(t, abe.MiniWeibull(), true, figure4FitTolerance)
		}},
}

// numberingDigest is the golden digest of a generator's state numbering.
func numberingDigest(gen *statespace.Generator) string {
	h := sha256.New()
	var buf [8]byte
	for _, mark := range gen.States {
		for _, v := range mark {
			binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mustCertify runs certify (statespace.Certify or the reference pipeline
// statespace.CertifyReference) on cm and fails the test on refusal.
func mustCertify(t *testing.T, certify func(*san.CompiledModel, statespace.Options) (*statespace.Generator, san.Certificate),
	cm *san.CompiledModel, opts statespace.Options) *statespace.Generator {
	t.Helper()
	gen, cert := certify(cm, opts)
	if !cert.Certified() {
		t.Fatalf("refused: %s", cert.Summary())
	}
	return gen
}

// sameChain asserts two generators are the same CTMC, state for state and
// bit for bit. Impulse vectors are compared semantically: the optimized
// explorer emits nil for impulse-free edges where the reference emits an
// all-zero vector, and the two contribute identically to every reward.
func sameChain(t *testing.T, got, want *statespace.Generator) {
	t.Helper()
	if len(got.States) != len(want.States) {
		t.Fatalf("state count: got %d want %d", len(got.States), len(want.States))
	}
	for si := range want.States {
		gm, wm := got.States[si], want.States[si]
		for pi := range wm {
			if gm[pi] != wm[pi] {
				t.Fatalf("state %d marking differs at place %d: got %d want %d", si, pi, gm[pi], wm[pi])
			}
		}
	}
	if len(got.Initial) != len(want.Initial) {
		t.Fatalf("initial atoms: got %d want %d", len(got.Initial), len(want.Initial))
	}
	for i := range want.Initial {
		if got.Initial[i] != want.Initial[i] {
			t.Fatalf("initial atom %d: got %+v want %+v", i, got.Initial[i], want.Initial[i])
		}
	}
	for ri := range want.InitialImpulses {
		if got.InitialImpulses[ri] != want.InitialImpulses[ri] {
			t.Fatalf("initial impulse %d: got %v want %v", ri, got.InitialImpulses[ri], want.InitialImpulses[ri])
		}
	}
	for si := range want.Transitions {
		ge, we := got.Transitions[si], want.Transitions[si]
		if len(ge) != len(we) {
			t.Fatalf("state %d: got %d edges want %d", si, len(ge), len(we))
		}
		for k := range we {
			g, w := ge[k], we[k]
			if g.From != w.From || g.To != w.To || g.Activity != w.Activity ||
				math.Float64bits(g.Rate) != math.Float64bits(w.Rate) {
				t.Fatalf("state %d edge %d: got %+v want %+v", si, k, g, w)
			}
			n := len(g.Impulses)
			if len(w.Impulses) > n {
				n = len(w.Impulses)
			}
			for ri := 0; ri < n; ri++ {
				var gi, wi float64
				if ri < len(g.Impulses) {
					gi = g.Impulses[ri]
				}
				if ri < len(w.Impulses) {
					wi = w.Impulses[ri]
				}
				if math.Float64bits(gi) != math.Float64bits(wi) {
					t.Fatalf("state %d edge %d impulse %d: got %v want %v", si, k, ri, gi, wi)
				}
			}
		}
	}
}

// TestExploreFastMatchesBaseline checks the interned explorer against the
// sequential reference explorer on the hypercube fixture and the three
// shipped minis: identical state numbering, markings, initial distribution,
// and edges — or, for a symmetric quotient, the reference chain lumped class
// for class — at parallelism 1 and at a worker count far above the chunk
// count.
func TestExploreFastMatchesBaseline(t *testing.T) {
	for _, fx := range chainFixtures {
		t.Run(fx.name, func(t *testing.T) {
			cm := fx.build(t)
			ref := mustCertify(t, statespace.CertifyReference, cm, statespace.Options{})
			if len(ref.States) != fx.flatStates {
				t.Fatalf("fixture: got %d flat states, want %d", len(ref.States), fx.flatStates)
			}
			for _, par := range []int{1, 8} {
				fast := mustCertify(t, statespace.Certify, cm, statespace.Options{Parallelism: par})
				if len(fast.States) != fx.states {
					t.Fatalf("parallelism %d: got %d states, want %d", par, len(fast.States), fx.states)
				}
				if fx.states == fx.flatStates {
					sameChain(t, fast, ref)
				} else {
					sameQuotient(t, cm, fast, ref)
				}
			}
		})
	}
}

// TestExploreFastMatchesBaselineVanishing repeats the differential check on
// a model with instantaneous activities, covering the vanishing-elimination
// route of the optimized explorer.
func TestExploreFastMatchesBaselineVanishing(t *testing.T) {
	ref := mustCertify(t, statespace.CertifyReference, buildVanishingRouter(t), statespace.Options{})
	fast := mustCertify(t, statespace.Certify, buildVanishingRouter(t), statespace.Options{Parallelism: 4})
	sameChain(t, fast, ref)
}

// TestExploreGoldenNumbering pins the state numbering of the hypercube
// fixture and the three shipped minis to golden digests: the explorer's at
// every parallelism, and the reference explorer's flat numbering. With
// TestExploreFastMatchesBaseline holding the two explorers to each other,
// neither can silently drift — the interned index must keep assigning
// indices in the reference discovery order.
func TestExploreGoldenNumbering(t *testing.T) {
	for _, fx := range chainFixtures {
		t.Run(fx.name, func(t *testing.T) {
			cm := fx.build(t)
			for _, opts := range []statespace.Options{{Parallelism: 1}, {Parallelism: 8}} {
				gen := mustCertify(t, statespace.Certify, cm, opts)
				if got := numberingDigest(gen); got != fx.golden {
					t.Fatalf("state numbering drifted (opts %+v):\n got %s\nwant %s", opts, got, fx.golden)
				}
			}
			ref := mustCertify(t, statespace.CertifyReference, cm, statespace.Options{})
			if got := numberingDigest(ref); got != fx.flatGolden {
				t.Fatalf("flat reference numbering drifted:\n got %s\nwant %s", got, fx.flatGolden)
			}
		})
	}
}

// TestSolveBitIdenticalAcrossParallelism runs explore + SolveTransient at
// parallelism 1 and at several higher worker counts and asserts the reward
// maps are bit-identical: the fixed-chunk kernels must make the worker count
// unobservable in the floating-point result.
func TestSolveBitIdenticalAcrossParallelism(t *testing.T) {
	cm := buildComponentFarm(t, 8)
	base := mustCertify(t, statespace.Certify, cm, statespace.Options{Parallelism: 1})
	want, err := base.SolveTransient(5000)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 16} {
		gen := mustCertify(t, statespace.Certify, cm, statespace.Options{Parallelism: par})
		got, err := gen.SolveTransient(5000)
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range want {
			if math.Float64bits(got[name]) != math.Float64bits(w) {
				t.Errorf("parallelism %d: transient %q = %v, want bit-identical %v", par, name, got[name], w)
			}
		}
	}
}

// TestFastSolverMatchesBaselineNumerically checks explorer plus gather
// kernel against the reference explorer plus scatter solver over a mission
// year: same chain, same series, results equal to reassociation-level
// tolerance.
func TestFastSolverMatchesBaselineNumerically(t *testing.T) {
	for _, fx := range chainFixtures {
		if fx.name == "MiniWeibull" {
			continue // its reference solve takes seconds, too slow for tier-1
		}
		t.Run(fx.name, func(t *testing.T) {
			cm := fx.build(t)
			ref := mustCertify(t, statespace.CertifyReference, cm, statespace.Options{})
			fast := mustCertify(t, statespace.Certify, cm, statespace.Options{Parallelism: 4})
			want, err := ref.SolveTransientReference(8760)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fast.SolveTransient(8760)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d rewards, want %d", len(got), len(want))
			}
			for name, w := range want {
				if diff := math.Abs(got[name] - w); diff > 1e-9*(1+math.Abs(w)) {
					t.Errorf("reward %q: fast %v vs reference %v (diff %g)", name, got[name], w, diff)
				}
			}
		})
	}
}

// TestExploreFastRefusalsMatchBaseline checks that the optimized explorer
// reproduces the reference explorer's refusals — text and classification —
// for marking-dependent rates without reactivation and for budget overruns.
func TestExploreFastRefusalsMatchBaseline(t *testing.T) {
	build := func() *san.CompiledModel {
		m := san.NewModel("nm")
		p := m.AddPlace("p", 2)
		q := m.AddPlace("q", 0)
		// Marking-dependent rate without reactivation: refused during
		// exploration, not at the initial-marking pre-check.
		a := m.AddTimedActivityFunc("drain", func(mr san.MarkingReader) dist.Distribution {
			return mustExpRate(t, float64(1+mr.Tokens(p)))
		})
		a.AddInputArc(p, 1)
		a.AddOutputArc(q, 1)
		cm, err := san.Compile(m, []san.RewardVariable{
			san.UpFraction("up", func(mr san.MarkingReader) bool { return mr.Tokens(p) > 0 }),
		})
		if err != nil {
			t.Fatal(err)
		}
		return cm
	}
	_, refCert := statespace.CertifyReference(build(), statespace.Options{})
	_, fastCert := statespace.Certify(build(), statespace.Options{Parallelism: 4})
	if refCert.Certified() || fastCert.Certified() {
		t.Fatal("fixture unexpectedly certified")
	}
	if got, want := fastCert.Summary(), refCert.Summary(); got != want {
		t.Fatalf("refusal text differs:\nfast:     %s\nbaseline: %s", got, want)
	}

	// Budget overrun: both paths must stop at the same budget with the same
	// refusal.
	cm := buildComponentFarm(t, 8)
	_, refCert = statespace.CertifyReference(cm, statespace.Options{MaxStates: 100})
	_, fastCert = statespace.Certify(cm, statespace.Options{Parallelism: 4, MaxStates: 100})
	if refCert.Certified() || fastCert.Certified() {
		t.Fatal("budget fixture unexpectedly certified")
	}
	if got, want := fastCert.Summary(), refCert.Summary(); got != want {
		t.Fatalf("budget refusal differs:\nfast:     %s\nbaseline: %s", got, want)
	}
}
