package statespace_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sync/atomic"
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
// the tangible state count and two SHA-256 digests of the chain Certify
// generates and of the flat chain the reference explorer generates: the
// state numbering (numberingDigest) and the edges (edgeDigest). The chains
// differ only for a model Certify solves as a symmetric quotient.
type chainFixture struct {
	name                 string
	states               int
	golden, edges        string
	flatStates           int
	flatGolden, flatEdge string
	build                func(t *testing.T) *san.CompiledModel
}

// chainFixtures are the hypercube fixture, the three shipped minis in the
// form the sweep solves them, and MiniExponential ×2, the largest chain the
// sweep solves. MiniWeibull's three disks are exchangeable, so Certify
// generates its symmetric quotient.
var chainFixtures = []chainFixture{
	{"farm8", 256, "c4ad5665ce507fab4bd04e4f95bb3e4bc8a543d60056960d57949dd0b445d6a4",
		"d2d6ffeade00b7e230856162e12cc619f43789468177f79a055be926f47da1b2",
		256, "c4ad5665ce507fab4bd04e4f95bb3e4bc8a543d60056960d57949dd0b445d6a4",
		"d2d6ffeade00b7e230856162e12cc619f43789468177f79a055be926f47da1b2",
		func(t *testing.T) *san.CompiledModel { return buildComponentFarm(t, 8, nil) }},
	{"MiniExponential", 1728, "5f777292ec346cb53e124044b11771da34e378d95e338f5de7321b3c7e465457",
		"4c65fac407d9a9adc2f7e45fb70c89f819ddbf2f09269cdd93cf507eb96447c6",
		1728, "5f777292ec346cb53e124044b11771da34e378d95e338f5de7321b3c7e465457",
		"4c65fac407d9a9adc2f7e45fb70c89f819ddbf2f09269cdd93cf507eb96447c6",
		func(t *testing.T) *san.CompiledModel { return buildMini(t, abe.MiniExponential(), false, 0) }},
	{"MiniErlang", 3456, "8a651d3490a0ecaf5e14b492cb89fa2423cede5b8dde64836ec75801e33d8440",
		"d27d04b767d58d7a692087e4c3d683d933f54e4f26e9a066db6c5412950ef492",
		3456, "8a651d3490a0ecaf5e14b492cb89fa2423cede5b8dde64836ec75801e33d8440",
		"d27d04b767d58d7a692087e4c3d683d933f54e4f26e9a066db6c5412950ef492",
		func(t *testing.T) *san.CompiledModel { return buildMini(t, abe.MiniErlang(), true, 0) }},
	{"MiniWeibull", 8640, "9c683e21185bea010a11dc29e86c0b5296c0dad3d4c1dbbd49067ac4a82be85c",
		"0d002943fc10a6bad6093398078d963b27ad1a899b0bc6f01590593b7e10ce58",
		27648, "21bc99d85549b38af4c464aa58c082f2949c4fcc34de1c49877e045a2f6ec145",
		"1b1cbec87a726ac1ec2ad1c7cce6acf3bbe1cbd93afacb6a4ffc465df9b48d3a",
		func(t *testing.T) *san.CompiledModel {
			return buildMini(t, abe.MiniWeibull(), true, figure4FitTolerance)
		}},
	{"MiniExponential x2", 30240, "e6374d9840210d3064096cf4b88a62f9458a84833984fa3979f2125beccee3de",
		"db5c15bd510456f2f29488b369421ced7dae94cd9a854dfeda63c3bc9ff56ff1",
		30240, "e6374d9840210d3064096cf4b88a62f9458a84833984fa3979f2125beccee3de",
		"db5c15bd510456f2f29488b369421ced7dae94cd9a854dfeda63c3bc9ff56ff1",
		func(t *testing.T) *san.CompiledModel { return buildMiniExponentialX2(t) }},
}

// buildMiniExponentialX2 compiles MiniExponential scaled by 2 (30,240
// states, 385,056 edges), as the analytic sweep certifies it.
func buildMiniExponentialX2(t *testing.T) *san.CompiledModel {
	return buildMini(t, abe.MiniExponential().ScaledBy(2), false, 0)
}

// numberingDigest is the golden digest of a generator's state numbering.
func numberingDigest(gen *statespace.Generator) string {
	h := sha256.New()
	var buf [8]byte
	for _, mark := range markings(gen) {
		for _, v := range mark {
			binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// edgeDigest is the golden digest of a generator's edges: per state, its
// edge count, then per edge its target, its rate bits and the bits of its
// impulse for every reward (+0.0's when it earns none), each as a
// little-endian uint64.
func edgeDigest(gen *statespace.Generator, nRewards int) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for s := range gen.States {
		edges := edgesOf(gen, s)
		put(uint64(len(edges)))
		for _, e := range edges {
			put(uint64(e.to))
			put(math.Float64bits(e.rate))
			for ri := range nRewards {
				var bits uint64
				if ri < len(e.impulses) {
					bits = math.Float64bits(e.impulses[ri])
				}
				put(bits)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// markings decodes every state of gen.
func markings(gen *statespace.Generator) [][]int {
	out := make([][]int, len(gen.States))
	for s := range out {
		out[s] = gen.Marking(s, nil)
	}
	return out
}

// testEdge is one edge of a generator as the tests read it.
type testEdge struct {
	to       int
	rate     float64
	impulses []float64
}

// edgesOf returns state s's edges in order.
func edgesOf(gen *statespace.Generator, s int) []testEdge {
	out := make([]testEdge, gen.Degree(s))
	for k := range out {
		e := &out[k]
		e.to, e.rate, e.impulses = gen.Edge(s, k)
	}
	return out
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
// bit for bit. Impulse vectors are compared by their bits, a nil vector
// reading as +0.0 everywhere.
func sameChain(t *testing.T, got, want *statespace.Generator) {
	t.Helper()
	if len(got.States) != len(want.States) {
		t.Fatalf("state count: got %d want %d", len(got.States), len(want.States))
	}
	var gm, wm []int
	for si := range want.States {
		gm, wm = got.Marking(si, gm), want.Marking(si, wm)
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
	for si := range want.States {
		ge, we := edgesOf(got, si), edgesOf(want, si)
		if len(ge) != len(we) {
			t.Fatalf("state %d: got %d edges want %d", si, len(ge), len(we))
		}
		for k := range we {
			g, w := ge[k], we[k]
			if g.to != w.to || math.Float64bits(g.rate) != math.Float64bits(w.rate) {
				t.Fatalf("state %d edge %d: got %+v want %+v", si, k, g, w)
			}
			n := max(len(g.impulses), len(w.impulses))
			for ri := 0; ri < n; ri++ {
				var gi, wi float64
				if ri < len(g.impulses) {
					gi = g.impulses[ri]
				}
				if ri < len(w.impulses) {
					wi = w.impulses[ri]
				}
				if math.Float64bits(gi) != math.Float64bits(wi) {
					t.Fatalf("state %d edge %d impulse %d: got %v want %v", si, k, ri, gi, wi)
				}
			}
		}
	}
}

// TestExploreFastMatchesBaseline checks the interned explorer against the
// reference explorer on the hypercube fixture and the three shipped minis:
// identical state numbering, markings, initial distribution, and edges —
// or, for a symmetric quotient, the reference chain lumped class for class.
func TestExploreFastMatchesBaseline(t *testing.T) {
	for _, fx := range chainFixtures {
		t.Run(fx.name, func(t *testing.T) {
			cm := fx.build(t)
			ref := mustCertify(t, statespace.CertifyReference, cm, statespace.Options{})
			if len(ref.States) != fx.flatStates {
				t.Fatalf("fixture: got %d flat states, want %d", len(ref.States), fx.flatStates)
			}
			fast := mustCertify(t, statespace.Certify, cm, statespace.Options{})
			if len(fast.States) != fx.states {
				t.Fatalf("got %d states, want %d", len(fast.States), fx.states)
			}
			if fx.states == fx.flatStates {
				sameChain(t, fast, ref)
			} else {
				sameQuotient(t, cm, fast, ref)
			}
		})
	}
}

// TestCompactGeneratorMemory bounds the memory of the largest chain the
// analytic sweep solves, MiniExponential ×2 (385,056 edges): the certified
// generator keeps at most 32 bytes per edge, counted from its slices'
// capacities (a 16-byte edge record, the packed markings and the
// projections' class maps), and CertifyCascade, as the sweep runs it,
// allocates at most 26 MB in all.
func TestCompactGeneratorMemory(t *testing.T) {
	cm := buildMiniExponentialX2(t)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gen, cert, err := statespace.CertifyCascade(cm, figure4FitTolerance, statespace.Options{})
	runtime.ReadMemStats(&after)
	if err != nil || !cert.Certified() {
		t.Fatalf("not certified: %v %s", err, cert.Summary())
	}
	edges := gen.NumTransitions()
	if edges != 385056 {
		t.Fatalf("got %d edges, want 385,056", edges)
	}
	kept := float64(gen.RetainedBytes()) / float64(edges)
	allocated := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("kept %.1f B per edge; CertifyCascade allocated %.1f MB", kept, allocated)
	if kept > 32 {
		t.Errorf("generator keeps %.1f B per edge, want at most 32", kept)
	}
	if allocated > 26 {
		t.Errorf("CertifyCascade allocated %.1f MB, want at most 26", allocated)
	}
}

// TestExploreFastMatchesBaselineVanishing repeats the differential check on
// a model with instantaneous activities, covering the vanishing-elimination
// route of the optimized explorer.
func TestExploreFastMatchesBaselineVanishing(t *testing.T) {
	ref := mustCertify(t, statespace.CertifyReference, buildVanishingRouter(t), statespace.Options{})
	fast := mustCertify(t, statespace.Certify, buildVanishingRouter(t), statespace.Options{})
	sameChain(t, fast, ref)
}

// TestExploreGoldenNumbering pins the state numbering and the edges (target,
// rate and impulse bits, in order) of every chain fixture to golden
// digests: the explorer's, and the reference explorer's flat chain's. With
// TestExploreFastMatchesBaseline holding the two explorers to each other,
// neither can silently drift — the interned index must keep assigning
// indices in the reference discovery order, and the edge storage must keep
// every edge's bits in exploration order.
func TestExploreGoldenNumbering(t *testing.T) {
	for _, fx := range chainFixtures {
		t.Run(fx.name, func(t *testing.T) {
			cm := fx.build(t)
			nR := len(cm.Rewards())
			gen := mustCertify(t, statespace.Certify, cm, statespace.Options{})
			if got := numberingDigest(gen); got != fx.golden {
				t.Fatalf("state numbering drifted:\n got %s\nwant %s", got, fx.golden)
			}
			if got := edgeDigest(gen, nR); got != fx.edges {
				t.Fatalf("edges drifted:\n got %s\nwant %s", got, fx.edges)
			}
			ref := mustCertify(t, statespace.CertifyReference, cm, statespace.Options{})
			if got := numberingDigest(ref); got != fx.flatGolden {
				t.Fatalf("flat reference numbering drifted:\n got %s\nwant %s", got, fx.flatGolden)
			}
			if got := edgeDigest(ref, nR); got != fx.flatEdge {
				t.Fatalf("flat reference edges drifted:\n got %s\nwant %s", got, fx.flatEdge)
			}
		})
	}
}

// TestFastSolverMatchesBaselineNumerically checks explorer plus gather
// kernel against the reference explorer plus scatter solver over a mission
// year: same chain, same series, results equal to reassociation-level
// tolerance.
func TestFastSolverMatchesBaselineNumerically(t *testing.T) {
	for _, fx := range chainFixtures {
		if fx.flatStates > 5000 {
			continue // MiniWeibull and ×2: their reference solves take seconds, too slow for tier-1
		}
		t.Run(fx.name, func(t *testing.T) {
			cm := fx.build(t)
			ref := mustCertify(t, statespace.CertifyReference, cm, statespace.Options{})
			fast := mustCertify(t, statespace.Certify, cm, statespace.Options{})
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
	_, fastCert := statespace.Certify(build(), statespace.Options{})
	if refCert.Certified() || fastCert.Certified() {
		t.Fatal("fixture unexpectedly certified")
	}
	if got, want := fastCert.Summary(), refCert.Summary(); got != want {
		t.Fatalf("refusal text differs:\nfast:     %s\nbaseline: %s", got, want)
	}

	// Budget overrun: both paths must stop at the same budget with the same
	// refusal.
	cm := buildComponentFarm(t, 8, nil)
	_, refCert = statespace.CertifyReference(cm, statespace.Options{MaxStates: 100})
	_, fastCert = statespace.Certify(cm, statespace.Options{MaxStates: 100})
	if refCert.Certified() || fastCert.Certified() {
		t.Fatal("budget fixture unexpectedly certified")
	}
	if got, want := fastCert.Summary(), refCert.Summary(); got != want {
		t.Fatalf("budget refusal differs:\nfast:     %s\nbaseline: %s", got, want)
	}
}

// TestCertifyAndSolveStartNoGoroutines certifies and solves an 11-unit
// farm, whose BFS levels are up to 462 states wide, at GOMAXPROCS of at
// least 2, sampling runtime.NumGoroutine from the model's case
// probabilities and rate reward. Certification and the solve run on the
// caller's goroutine, so no sample may exceed the count taken before the
// call: the sweep's point fan-out is the only pool.
func TestCertifyAndSolveStartNoGoroutines(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	var peak atomic.Int64
	cm := buildComponentFarm(t, 11, func() {
		n := int64(runtime.NumGoroutine())
		for cur := peak.Load(); n > cur && !peak.CompareAndSwap(cur, n); cur = peak.Load() {
		}
	})
	before := int64(runtime.NumGoroutine())
	peak.Store(0)
	gen := mustCertify(t, statespace.Certify, cm, statespace.Options{})
	explored := peak.Load()
	if _, err := gen.SolveTransient(100); err != nil {
		t.Fatal(err)
	}
	if explored == 0 {
		t.Fatal("no closure sampled the goroutine count during exploration")
	}
	if got := peak.Load(); got > before {
		t.Fatalf("%d goroutines while certifying and solving, %d before", got, before)
	}
}
