package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/rareevent"
	"repro/internal/rng"
	"repro/internal/san"
)

func mustExp(t testing.TB, mean float64) dist.Exponential {
	t.Helper()
	e, err := dist.NewExponentialFromMean(mean)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustUniform(t testing.TB, lo, hi float64) dist.Uniform {
	t.Helper()
	u, err := dist.NewUniform(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func mustDet(t testing.TB, v float64) dist.Deterministic {
	t.Helper()
	d, err := dist.NewDeterministic(v)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRepairableConfigValidate(t *testing.T) {
	good := RepairableConfig{MTBFHours: 100, Repair: mustDet(t, 1)}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (RepairableConfig{MTBFHours: 0, Repair: mustDet(t, 1)}).Validate(); err == nil {
		t.Error("zero MTBF accepted")
	}
	if err := (RepairableConfig{MTBFHours: 10}).Validate(); err == nil {
		t.Error("nil repair accepted")
	}
}

func TestBuildRepairableAvailability(t *testing.T) {
	m := san.NewModel("repairable")
	downCounter := m.AddPlace("down_counter", 0)
	cfg := RepairableConfig{MTBFHours: 100, Repair: mustDet(t, 10)}
	if err := BuildRepairable(m, "comp", cfg, downCounter); err != nil {
		t.Fatal(err)
	}
	if err := BuildRepairable(m, "comp2", cfg, nil); err == nil {
		t.Error("nil counter accepted")
	}
	if err := BuildRepairable(m, "comp3", RepairableConfig{}, downCounter); err == nil {
		t.Error("invalid config accepted")
	}
	rewards := []san.RewardVariable{
		san.UpFraction("avail", func(mr san.MarkingReader) bool { return mr.Tokens(downCounter) == 0 }),
	}
	res, err := san.RunReplications(m, rewards, san.Options{Mission: 20000, Replications: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := 100.0 / 110.0
	if math.Abs(res.Mean("avail")-want) > 0.01 {
		t.Errorf("availability = %v, want ~%v", res.Mean("avail"), want)
	}
}

func TestPairConfigValidate(t *testing.T) {
	good := PairConfig{
		HWMTBFHours: 1440, HWRepair: mustUniform(t, 12, 36),
		SWMTBFHours: 1440, SWRepair: mustUniform(t, 2, 6),
		PropagationProb: 0.015,
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := good
	bad.PropagationProb = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("propagation > 1 accepted")
	}
	bad = good
	bad.HWMTBFHours = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero hw MTBF accepted")
	}
	bad = good
	bad.Spare = true
	if err := bad.Validate(); err == nil {
		t.Error("spare without activation time accepted")
	}
	bad.SpareActivationHours = 8
	if err := bad.Validate(); err != nil {
		t.Errorf("valid spare config rejected: %v", err)
	}
}

func TestFailoverPairMasksSingleFailures(t *testing.T) {
	// With no correlation and fast repairs relative to failures, single
	// member failures are masked and the pair is essentially always up.
	m := san.NewModel("pair")
	pairsOut := m.AddPlace("pairs_out", 0)
	cfg := PairConfig{
		HWMTBFHours: 2000, HWRepair: mustDet(t, 4),
		SWMTBFHours: 2000, SWRepair: mustDet(t, 1),
		PropagationProb: 0,
	}
	if _, err := BuildFailoverPair(m, "oss", cfg, pairsOut); err != nil {
		t.Fatal(err)
	}
	rewards := []san.RewardVariable{
		san.UpFraction("pair_avail", func(mr san.MarkingReader) bool { return mr.Tokens(pairsOut) == 0 }),
	}
	res, err := san.RunReplications(m, rewards, san.Options{Mission: 8760, Replications: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Mean("pair_avail"); got < 0.9999 {
		t.Errorf("pair availability = %v, want ~1 when single faults are masked", got)
	}
}

func TestFailoverPairCorrelatedFailuresCauseOutage(t *testing.T) {
	// With propagation probability 1, every failure takes both members down,
	// so outages must be visible. The availability should be close to the
	// two-state value MTBF/(MTBF+MTTR) for the hw+sw superposition.
	m := san.NewModel("pair-corr")
	pairsOut := m.AddPlace("pairs_out", 0)
	cfg := PairConfig{
		HWMTBFHours: 500, HWRepair: mustDet(t, 24),
		SWMTBFHours: 500, SWRepair: mustDet(t, 24),
		PropagationProb: 1,
	}
	if _, err := BuildFailoverPair(m, "oss", cfg, pairsOut); err != nil {
		t.Fatal(err)
	}
	rewards := []san.RewardVariable{
		san.UpFraction("pair_avail", func(mr san.MarkingReader) bool { return mr.Tokens(pairsOut) == 0 }),
	}
	res, err := san.RunReplications(m, rewards, san.Options{Mission: 8760, Replications: 40, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Mean("pair_avail")
	if got > 0.95 || got < 0.75 {
		t.Errorf("pair availability with full correlation = %v, want noticeable outages (0.75-0.95)", got)
	}
}

func TestFailoverPairDoubleFaultAccounting(t *testing.T) {
	// Deterministic failure injection: both servers fail at the same instant
	// (deterministic lifetimes), so the pair goes down exactly once and
	// recovers after the deterministic repair.
	m := san.NewModel("pair-det")
	pairsOut := m.AddPlace("pairs_out", 0)
	// Deterministic "exponential" is not available through PairConfig (it
	// draws exponential lifetimes), so instead use propagation 1 with one
	// rare process: the first failure at ~t drags the partner down too.
	cfg := PairConfig{
		HWMTBFHours: 100, HWRepair: mustDet(t, 50),
		SWMTBFHours: 1e9, SWRepair: mustDet(t, 1),
		PropagationProb: 1,
	}
	pp, err := BuildFailoverPair(m, "oss", cfg, pairsOut)
	if err != nil {
		t.Fatal(err)
	}
	rewards := []san.RewardVariable{
		san.UpFraction("pair_avail", func(mr san.MarkingReader) bool { return mr.Tokens(pairsOut) == 0 }),
		{Name: "final_up_count", Mode: san.InstantAtEnd, Rate: func(mr san.MarkingReader) float64 {
			return float64(mr.Tokens(pp.UpCount))
		}},
		{Name: "final_pairs_out", Mode: san.InstantAtEnd, Rate: func(mr san.MarkingReader) float64 {
			return float64(mr.Tokens(pairsOut))
		}},
	}
	cm, err := san.Compile(m, rewards)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cm.NewSimulator(rng.NewStream(77, "pair-det"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rewards["pair_avail"] >= 1 || res.Rewards["pair_avail"] <= 0 {
		t.Errorf("pair availability = %v, want in (0,1)", res.Rewards["pair_avail"])
	}
	// The counter must never go negative or exceed 1 for a single pair; the
	// final state must be consistent with the up count.
	if out := res.Rewards["final_pairs_out"]; out != 0 && out != 1 {
		t.Errorf("final pairs_out = %v, want 0 or 1", out)
	}
	if up, out := res.Rewards["final_up_count"], res.Rewards["final_pairs_out"]; up > 0 && out != 0 {
		t.Errorf("inconsistent final state: up_count=%v pairs_out=%v", up, out)
	}
}

func TestSpareImprovesAvailability(t *testing.T) {
	build := func(spare bool) float64 {
		m := san.NewModel("pair-spare")
		pairsOut := m.AddPlace("pairs_out", 0)
		cfg := PairConfig{
			HWMTBFHours: 400, HWRepair: mustDet(t, 30),
			SWMTBFHours: 1e9, SWRepair: mustDet(t, 1),
			PropagationProb: 1,
			Spare:           spare,
		}
		if spare {
			cfg.SpareActivationHours = 6
		}
		if _, err := BuildFailoverPair(m, "oss", cfg, pairsOut); err != nil {
			t.Fatal(err)
		}
		rewards := []san.RewardVariable{
			san.UpFraction("pair_avail", func(mr san.MarkingReader) bool { return mr.Tokens(pairsOut) == 0 }),
		}
		res, err := san.RunReplications(m, rewards, san.Options{Mission: 8760, Replications: 40, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		return res.Mean("pair_avail")
	}
	without := build(false)
	with := build(true)
	if !(with > without) {
		t.Errorf("spare did not improve availability: %v vs %v", with, without)
	}
	// With a 6 h activation against a 30 h repair the outage time should
	// shrink by well over half.
	lossWithout := 1 - without
	lossWith := 1 - with
	if lossWith > 0.6*lossWithout {
		t.Errorf("spare reduced outage only from %v to %v", lossWithout, lossWith)
	}
}

func TestTransientConfigValidate(t *testing.T) {
	good := TransientConfig{EventsPerHour: 0.12, OutageLoHours: 0.03, OutageHiHours: 0.15}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (TransientConfig{EventsPerHour: 0, OutageLoHours: 0.1, OutageHiHours: 0.2}).Validate(); err == nil {
		t.Error("zero rate accepted")
	}
	if err := (TransientConfig{EventsPerHour: 1, OutageLoHours: 0.3, OutageHiHours: 0.2}).Validate(); err == nil {
		t.Error("inverted outage range accepted")
	}
}

func TestBuildTransientSource(t *testing.T) {
	m := san.NewModel("transient")
	cfg := TransientConfig{EventsPerHour: 0.5, OutageLoHours: 0.05, OutageHiHours: 0.1}
	tp, err := BuildTransientSource(m, "client_nw", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildTransientSource(m, "bad", TransientConfig{}); err == nil {
		t.Error("invalid config accepted")
	}
	rewards := []san.RewardVariable{
		san.CompletionCount("events", tp.EventActivity),
		san.UpFraction("clean", func(mr san.MarkingReader) bool { return mr.Tokens(tp.Active) == 0 }),
	}
	res, err := san.RunReplications(m, rewards, san.Options{Mission: 8760, Replications: 20, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	events := res.Mean("events")
	// Expected events per year: rate 0.5/h over the ~99.99% of time the
	// source is idle ≈ 0.5*8760*(1-eps) ≈ 4350.
	if events < 3800 || events > 4500 {
		t.Errorf("transient events per year = %v, want ~4300", events)
	}
	clean := res.Mean("clean")
	// Fraction of time without a transient in progress: 1 - rate*meanOutage
	// ≈ 1 - 0.5*0.075 ≈ 0.963.
	if math.Abs(clean-0.963) > 0.01 {
		t.Errorf("clean fraction = %v, want ~0.963", clean)
	}
}

// ulpOne is the spacing of float64 values around 1.0.
const ulpOne = 0x1p-52

// Property: for any valid pair configuration the pairs-out counter stays
// consistent: availability lies in [0,1] and the final counter value is 0 or
// 1 for a single pair.
func TestQuickPairCounterConsistency(t *testing.T) {
	f := func(seed uint64, propSeed, mtbfSeed uint8, spare bool) bool {
		prop := float64(propSeed%100) / 100.0
		mtbf := 200 + float64(mtbfSeed)*10
		m := san.NewModel("prop-pair")
		pairsOut := m.AddPlace("pairs_out", 0)
		cfg := PairConfig{
			HWMTBFHours: mtbf, HWRepair: mustDet(t, 20),
			SWMTBFHours: mtbf, SWRepair: mustDet(t, 3),
			PropagationProb: prop,
			Spare:           spare,
		}
		if spare {
			cfg.SpareActivationHours = 6
		}
		if _, err := BuildFailoverPair(m, "oss", cfg, pairsOut); err != nil {
			return false
		}
		rewards := []san.RewardVariable{
			san.UpFraction("avail", func(mr san.MarkingReader) bool { return mr.Tokens(pairsOut) == 0 }),
			{Name: "final_out", Mode: san.InstantAtEnd, Rate: func(mr san.MarkingReader) float64 {
				return float64(mr.Tokens(pairsOut))
			}},
		}
		cm, err := san.Compile(m, rewards)
		if err != nil {
			return false
		}
		sim, err := cm.NewSimulator(rng.NewStream(seed, "prop"))
		if err != nil {
			return false
		}
		res, err := sim.Run(4000)
		if err != nil {
			return false
		}
		avail := res.Rewards["avail"]
		out := res.Rewards["final_out"]
		// The up-time accumulator sums interval lengths in float64, so an
		// always-up run can land an ulp above 1 (e.g. 1+2e-16); allow that
		// rounding without weakening the invariant.
		return avail >= 0 && avail <= 1+4*ulpOne && (out == 0 || out == 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// lumpablePairConfig returns a fully exponential pair configuration for the
// lumping tests.
func lumpablePairConfig(t testing.TB, hwMTBF, swMTBF, hwRepair, swRepair, p float64) PairConfig {
	t.Helper()
	return PairConfig{
		HWMTBFHours: hwMTBF, HWRepair: mustExp(t, hwRepair),
		SWMTBFHours: swMTBF, SWRepair: mustExp(t, swRepair),
		PropagationProb: p,
	}
}

func TestPairLumpable(t *testing.T) {
	good := lumpablePairConfig(t, 1000, 1000, 24, 4, 0.02)
	if !good.Lumpable() {
		t.Error("fully exponential pair not lumpable")
	}
	uniform := good
	uniform.HWRepair = mustUniform(t, 12, 36)
	if uniform.Lumpable() {
		t.Error("uniform repair reported lumpable")
	}
	spared := good
	spared.Spare = true
	spared.SpareActivationHours = 8
	if spared.Lumpable() {
		t.Error("spared pair reported lumpable")
	}
	// FailoverPairClass refuses the non-lumpable forms instead of mis-lumping.
	m := san.NewModel("guard")
	out := m.AddPlace("out", 0)
	if _, err := FailoverPairClass(uniform, out); err == nil {
		t.Error("uniform repair accepted by FailoverPairClass")
	}
	if _, err := FailoverPairClass(good, nil); err == nil {
		t.Error("nil pairs-out accepted")
	}
	if _, err := BuildFailoverPairsLumped(m, "pairs", 0, good, out); err == nil {
		t.Error("zero pair count accepted")
	}
}

// TestLumpedPairMatchesUniformization validates the lumped fail-over-pair
// class against an exact transient answer: with symmetric hardware/software
// rates, equal exponential repairs, and no propagation, the number of down
// servers in a pair is a birth-death chain, so the probability that the pair
// is ever fully down within the horizon is computable by uniformization.
func TestLumpedPairMatchesUniformization(t *testing.T) {
	const (
		mtbf    = 2000.0 // per kind, so each server fails at 1/1000 per hour
		repair  = 24.0
		horizon = 8760.0
		reps    = 2000
	)
	lambdaServer := 2.0 / mtbf
	mu := 1.0 / repair
	want, err := rareevent.BirthDeathHitProbability(
		[]float64{2 * lambdaServer, lambdaServer},
		[]float64{0, mu},
		horizon,
	)
	if err != nil {
		t.Fatal(err)
	}

	m := san.NewModel("pair-uniformization")
	pairsOut := m.AddPlace("pairs_out", 0)
	cfg := lumpablePairConfig(t, mtbf, mtbf, repair, repair, 0)
	lp, err := BuildFailoverPairsLumped(m, "pair", 1, cfg, pairsOut)
	if err != nil {
		t.Fatal(err)
	}
	// Importance: number of down servers (1 for the one-down states, 2 for
	// the fully-down states).
	oneDown := []*san.Place{lp.State("uh"), lp.State("us")}
	twoDown := []*san.Place{lp.State("hh"), lp.State("hs"), lp.State("ss")}
	importance := func(mr san.MarkingReader) float64 {
		n := 0
		for _, p := range oneDown {
			n += mr.Tokens(p)
		}
		for _, p := range twoDown {
			n += 2 * mr.Tokens(p)
		}
		return float64(n)
	}

	cm, err := san.Compile(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for rep := 0; rep < reps; rep++ {
		sim, err := cm.NewSimulator(rng.NewStream(uint64(rep+1), "pair-bd"))
		if err != nil {
			t.Fatal(err)
		}
		crossed := false
		if _, err := sim.RunMonitored(horizon, &san.Monitor{
			Importance:  importance,
			Threshold:   2,
			OnCross:     func(float64, *san.Snapshot) { crossed = true },
			StopOnCross: true,
		}); err != nil {
			t.Fatal(err)
		}
		if crossed {
			hits++
		}
	}
	got := float64(hits) / reps
	se := math.Sqrt(want * (1 - want) / reps)
	if math.Abs(got-want) > 4*se {
		t.Errorf("P(pair fully down by %v h) = %v, uniformization says %v (+/- %v)", horizon, got, want, se)
	}
}

// TestLumpedPairsMatchFlat pins the strong-lumping equivalence on the full
// pair class (asymmetric rates, correlated failures): n pairs built flat and
// lumped agree on availability and the time-averaged pairs-down count within
// pooled confidence intervals, while the lumped model size is independent of
// n.
func TestLumpedPairsMatchFlat(t *testing.T) {
	const n = 6
	cfg := lumpablePairConfig(t, 500, 700, 24, 4, 0.1)
	opts := san.Options{Mission: 8760, Replications: 32, Seed: 13}

	build := func(lumped bool) (*san.Model, []san.RewardVariable) {
		m := san.NewModel("pairs")
		pairsOut := m.AddPlace("pairs_out", 0)
		if lumped {
			if _, err := BuildFailoverPairsLumped(m, "oss", n, cfg, pairsOut); err != nil {
				t.Fatal(err)
			}
		} else {
			err := san.Replicate(m, "oss", n, func(m *san.Model, prefix string, _ int) error {
				_, err := BuildFailoverPair(m, prefix, cfg, pairsOut)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return m, []san.RewardVariable{
			san.UpFraction("avail", func(mr san.MarkingReader) bool { return mr.Tokens(pairsOut) == 0 }),
			san.TokenTimeAverage("pairs_down", pairsOut),
		}
	}

	flatModel, flatRewards := build(false)
	lumpedModel, lumpedRewards := build(true)
	if fs, ls := flatModel.Stats(), lumpedModel.Stats(); ls.Activities >= fs.Activities || ls.Places >= fs.Places {
		t.Errorf("lumped model not smaller: lumped %+v vs flat %+v", ls, fs)
	}
	flatStudy, err := san.RunReplications(flatModel, flatRewards, opts)
	if err != nil {
		t.Fatal(err)
	}
	lumpedStudy, err := san.RunReplications(lumpedModel, lumpedRewards, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, reward := range []string{"avail", "pairs_down"} {
		fci, err := flatStudy.Interval(reward)
		if err != nil {
			t.Fatal(err)
		}
		lci, err := lumpedStudy.Interval(reward)
		if err != nil {
			t.Fatal(err)
		}
		pooled := math.Sqrt(fci.HalfWidth*fci.HalfWidth + lci.HalfWidth*lci.HalfWidth)
		if math.Abs(fci.Mean-lci.Mean) > 3*pooled {
			t.Errorf("%s: flat %v vs lumped %v differ beyond pooled interval %v", reward, fci.Mean, lci.Mean, pooled)
		}
	}
}

func TestBuildTransientImpulseSource(t *testing.T) {
	m := san.NewModel("transient-lumped")
	cfg := TransientConfig{EventsPerHour: 0.5, OutageLoHours: 0.05, OutageHiHours: 0.1}
	tp, err := BuildTransientImpulseSource(m, "client_nw", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Active != nil {
		t.Error("impulse-only source should not expose a window place")
	}
	if _, err := BuildTransientImpulseSource(m, "bad", TransientConfig{}); err == nil {
		t.Error("invalid config accepted")
	}
	// One activity instead of two, one event per error instead of two, and
	// the same renewal law as the flat source's event activity.
	if got := m.Stats(); got.Activities != 1 {
		t.Errorf("activities = %d, want 1", got.Activities)
	}
	res, err := san.RunReplications(m, []san.RewardVariable{
		san.CompletionCount("events", tp.EventActivity),
	}, san.Options{Mission: 8760, Replications: 20, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	events := res.Mean("events")
	// Same expectation band as TestBuildTransientSource's flat form.
	if events < 3800 || events > 4500 {
		t.Errorf("transient events per year = %v, want ~4300", events)
	}
}

// TestErlangRepair pins the multi-stage repair constructor: the window's
// mean is preserved, the shape is the stage count, and degenerate inputs
// are rejected.
func TestErlangRepair(t *testing.T) {
	d, err := ErlangRepair(3, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := d.(dist.Gamma)
	if !ok {
		t.Fatalf("ErlangRepair returned %T, want dist.Gamma", d)
	}
	if g.Shape() != 3 {
		t.Errorf("shape = %v, want 3", g.Shape())
	}
	if math.Abs(g.Mean()-12) > 1e-12 {
		t.Errorf("mean = %v, want 12 (window midpoint)", g.Mean())
	}
	if _, err := ErlangRepair(1, 8, 16); err == nil {
		t.Error("single-stage Erlang accepted; that is the exponential, use it directly")
	}
	if _, err := ErlangRepair(3, -16, 8); err == nil {
		t.Error("non-positive mean accepted")
	}
}
