package rareevent

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/san"
)

// buildBirthDeath constructs the M/M/1-style SAN: a single place n holding
// the population, a birth activity at constant rate lambda (always enabled),
// and a death activity at constant rate mu enabled while n >= 1. The rare
// event is n reaching top; exponential delays make the chain Markov, so the
// uniformization answer is exact. The cap gate stops births at top so the
// importance cannot overshoot the last level.
func buildBirthDeath(t testing.TB, lambda, mu float64, top int) (*san.Model, san.ImportanceFunc) {
	t.Helper()
	m := san.NewModel("birthdeath")
	n := m.AddPlace("n", 0)
	birthDelay, err := dist.NewExponentialFromRate(lambda)
	if err != nil {
		t.Fatal(err)
	}
	deathDelay, err := dist.NewExponentialFromRate(mu)
	if err != nil {
		t.Fatal(err)
	}
	m.AddTimedActivity("birth", birthDelay).
		AddInputGate(&san.InputGate{
			Name:    "cap",
			Reads:   []*san.Place{n},
			Enabled: func(mr san.MarkingReader) bool { return mr.Tokens(n) < top },
		}).
		AddOutputArc(n, 1)
	m.AddTimedActivity("death", deathDelay).AddInputArc(n, 1)
	importance := func(mr san.MarkingReader) float64 { return float64(mr.Tokens(n)) }
	return m, importance
}

func TestBirthDeathHitProbabilityValidation(t *testing.T) {
	if _, err := BirthDeathHitProbability(nil, nil, 1); err == nil {
		t.Error("empty rates accepted")
	}
	if _, err := BirthDeathHitProbability([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := BirthDeathHitProbability([]float64{1}, []float64{0}, -1); err == nil {
		t.Error("negative horizon accepted")
	}
	if _, err := BirthDeathHitProbability([]float64{-1}, []float64{0}, 1); err == nil {
		t.Error("negative rate accepted")
	}
	p, err := BirthDeathHitProbability([]float64{0, 0}, []float64{0, 1}, 5)
	if err != nil || p != 0 {
		t.Errorf("all-zero birth rates: p=%v err=%v", p, err)
	}
}

func TestBirthDeathHitProbabilityPureBirth(t *testing.T) {
	// With a single state step (K=1) the hit time is Exp(lambda):
	// P(hit by T) = 1 - exp(-lambda T).
	lambda, T := 0.3, 2.0
	p, err := BirthDeathHitProbability([]float64{lambda}, []float64{0}, T)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Exp(-lambda*T)
	if math.Abs(p-want) > 1e-9 {
		t.Errorf("p = %v, want %v", p, want)
	}

	// K=2 with distinct rates: hypoexponential CDF
	// P = 1 - (l2 e^{-l1 T} - l1 e^{-l2 T})/(l2 - l1).
	l1, l2 := 0.5, 1.25
	p2, err := BirthDeathHitProbability([]float64{l1, l2}, []float64{0, 0}, T)
	if err != nil {
		t.Fatal(err)
	}
	want2 := 1 - (l2*math.Exp(-l1*T)-l1*math.Exp(-l2*T))/(l2-l1)
	if math.Abs(p2-want2) > 1e-9 {
		t.Errorf("p2 = %v, want %v", p2, want2)
	}
}

func TestOptionsValidation(t *testing.T) {
	m, imp := buildBirthDeath(t, 1, 4, 3)
	bad := []Options{
		{Mission: 0, Levels: []float64{1}, Effort: []int{10}},
		{Mission: 10, Levels: nil, Effort: nil},
		{Mission: 10, Levels: []float64{2, 1}, Effort: []int{10, 10}},
		{Mission: 10, Levels: []float64{1, 2}, Effort: []int{10}},
		{Mission: 10, Levels: []float64{1}, Effort: []int{0}},
	}
	for i, opts := range bad {
		if _, err := Run(m, imp, opts); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	if _, err := Run(m, nil, Options{Mission: 10, Levels: []float64{1}, Effort: []int{10}}); err == nil {
		t.Error("nil importance accepted")
	}
}

// TestSplittingMatchesAnalyticBirthDeath is the headline correctness check:
// on a birth-death chain whose transient hit probability is computable by
// uniformization, the splitting estimate must agree with the exact answer
// within its confidence interval, and so must long-run naive Monte Carlo.
func TestSplittingMatchesAnalyticBirthDeath(t *testing.T) {
	const (
		lambda = 1.0
		mu     = 4.0
		top    = 6
		T      = 10.0
	)
	m, imp := buildBirthDeath(t, lambda, mu, top)

	birth := make([]float64, top)
	death := make([]float64, top)
	for i := 0; i < top; i++ {
		birth[i] = lambda
		death[i] = mu
	}
	exact, err := BirthDeathHitProbability(birth, death, T)
	if err != nil {
		t.Fatal(err)
	}
	if exact <= 0 || exact > 0.1 {
		t.Fatalf("test parameters no longer give a rare event: exact = %v", exact)
	}

	split, err := Run(m, imp, Options{
		Mission: T,
		Levels:  UniformSplittingLevels(top),
		Effort:  FixedEffort(top, 400),
		Seed:    11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if split.Probability <= 0 {
		t.Fatalf("splitting found no events: %+v", split.Stages)
	}
	// 2x the half width keeps the deterministic-seed test robust while still
	// catching estimator bias.
	if diff := math.Abs(split.Probability - exact); diff > 2*split.Interval.HalfWidth {
		t.Errorf("splitting %v vs exact %v: |diff| %v > 2*halfwidth %v",
			split.Probability, exact, diff, split.Interval.HalfWidth)
	}

	// With all-exponential delays, memoryless resampling on restore is
	// exactly distribution-preserving: the resampled estimate must agree
	// with the analytic answer too.
	resampled, err := Run(m, imp, Options{
		Mission:           T,
		Levels:            UniformSplittingLevels(top),
		Effort:            FixedEffort(top, 400),
		Seed:              17,
		ResampleOnRestore: func(*san.Activity) bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(resampled.Probability - exact); diff > 2*resampled.Interval.HalfWidth {
		t.Errorf("resampled splitting %v vs exact %v: |diff| %v > 2*halfwidth %v",
			resampled.Probability, exact, diff, resampled.Interval.HalfWidth)
	}

	naive, err := RunNaive(m, imp, NaiveOptions{
		Mission:         T,
		Level:           float64(top),
		EventBudget:     1 << 62, // run to MaxReplications
		MaxReplications: 30000,
		Seed:            11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if naive.Hits == 0 {
		t.Fatalf("naive MC saw no events at p=%v with %d reps", exact, naive.Replications)
	}
	if diff := math.Abs(naive.Probability - exact); diff > 2*naive.Interval.HalfWidth {
		t.Errorf("naive %v vs exact %v: |diff| %v > 2*halfwidth %v",
			naive.Probability, exact, diff, naive.Interval.HalfWidth)
	}
	// And the two estimators must agree with each other.
	if diff := math.Abs(naive.Probability - split.Probability); diff > 2*(naive.Interval.HalfWidth+split.Interval.HalfWidth) {
		t.Errorf("splitting %v and naive %v disagree beyond combined CIs", split.Probability, naive.Probability)
	}
}

// TestSplittingDeterministicAcrossParallelism checks the whole engine —
// per-trajectory seeding, snapshot pooling, and reductions — is bit-identical
// regardless of worker count; a negative count runs on one worker.
func TestSplittingDeterministicAcrossParallelism(t *testing.T) {
	m, imp := buildBirthDeath(t, 1, 3, 4)
	var baseline *Estimate
	for _, par := range []int{1, 4, 16, -1} {
		est, err := Run(m, imp, Options{
			Mission:     8,
			Levels:      UniformSplittingLevels(4),
			Effort:      FixedEffort(4, 120),
			Seed:        5,
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		est.Options.Parallelism = 0 // normalize the only field allowed to differ
		if baseline == nil {
			baseline = est
			continue
		}
		if !reflect.DeepEqual(baseline, est) {
			t.Errorf("parallelism %d changed the estimate: %+v vs %+v", par, est, baseline)
		}
	}
	if baseline.TotalEvents == 0 {
		t.Error("no events simulated")
	}
}

func TestSplittingExtinctionReportsZeroWithBound(t *testing.T) {
	// Tiny effort on a very rare event: some stage will produce no hits.
	// The estimate must be zero with a positive conservative half width and
	// no error.
	m, imp := buildBirthDeath(t, 0.01, 50, 5)
	est, err := Run(m, imp, Options{
		Mission: 5,
		Levels:  UniformSplittingLevels(5),
		Effort:  FixedEffort(5, 5),
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Probability != 0 {
		t.Errorf("probability = %v, want 0", est.Probability)
	}
	if !(est.Interval.HalfWidth > 0) {
		t.Errorf("half width = %v, want > 0", est.Interval.HalfWidth)
	}
	if len(est.Stages) == len(est.Options.Levels) {
		// Possible only if the last stage had zero hits; earlier extinction
		// truncates the stage list.
		last := est.Stages[len(est.Stages)-1]
		if last.Hits != 0 {
			t.Errorf("expected a zero-hit stage, got %+v", est.Stages)
		}
	}
}

func TestNaiveBudgetMetering(t *testing.T) {
	m, imp := buildBirthDeath(t, 1, 2, 3)
	est, err := RunNaive(m, imp, NaiveOptions{
		Mission:     10,
		Level:       3,
		EventBudget: 2000,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.TotalEvents < 2000 {
		t.Errorf("stopped before the budget: %d events", est.TotalEvents)
	}
	// One batch beyond the budget at most.
	if est.Replications%naiveBatchSize != 0 && est.Replications != est.Replications/naiveBatchSize*naiveBatchSize {
		t.Errorf("replications %d not in whole batches", est.Replications)
	}
	if est.Interval.N != est.Replications {
		t.Errorf("interval N %d != replications %d", est.Interval.N, est.Replications)
	}
}

func TestHelpers(t *testing.T) {
	if got := UniformSplittingLevels(3); !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Errorf("UniformSplittingLevels = %v", got)
	}
	if got := FixedEffort(2, 7); !reflect.DeepEqual(got, []int{7, 7}) {
		t.Errorf("FixedEffort = %v", got)
	}
}
