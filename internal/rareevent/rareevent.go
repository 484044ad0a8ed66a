// Package rareevent estimates rare-event probabilities on SAN models with
// RESTART-style fixed-effort multilevel importance splitting.
//
// The target measure is the transient probability that an importance
// function over the marking reaches a top level within the mission time —
// for the paper's storage models, the probability that some RAID tier
// accumulates more concurrent disk failures than its parity can absorb
// (data loss). Naive Monte Carlo needs on the order of 1/p replications to
// observe a single such event; splitting decomposes p into a product of
// per-level conditional probabilities, each large enough to estimate with
// modest effort:
//
//	p = P(L_m) = P(L_1) · P(L_2|L_1) · ... · P(L_m|L_{m-1})
//
// Stage 0 launches trajectories from time 0 and snapshots each one the
// first time its importance reaches level 1 (marking, pending activity
// completions, reward accumulators, and RNG state — see san.Snapshot).
// Stage k restarts a fixed effort of trajectories from the snapshots pooled
// at level k, with fresh per-restart random streams, and counts how many
// reach level k+1 before the mission ends. The product of the per-stage hit
// fractions is the unbiased fixed-effort estimator; its confidence interval
// comes from stats.ProductBinomialInterval.
package rareevent

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/fanout"
	"repro/internal/rng"
	"repro/internal/san"
	"repro/internal/stats"
)

// ErrBadOptions reports ill-formed splitting options.
var ErrBadOptions = errors.New("rareevent: invalid options")

// Options configures a fixed-effort splitting study.
type Options struct {
	// Mission is the horizon T of the transient probability
	// P(importance reaches the top level within [0, T]) in hours.
	Mission float64
	// Levels are the strictly increasing importance thresholds; reaching
	// the last level is the rare event.
	Levels []float64
	// Effort is the number of trajectories launched per stage and must have
	// one entry per level: Effort[0] trajectories start fresh at time 0,
	// Effort[k] restart round-robin from the snapshot pool collected at
	// Levels[k-1].
	Effort []int
	// Confidence is the level for reported intervals (default 0.95).
	Confidence float64
	// Seed seeds the master stream (default 1).
	Seed uint64
	// Parallelism is the number of worker goroutines (default GOMAXPROCS).
	// Results are bit-identical across Parallelism settings: per-trajectory
	// seeds and entry snapshots are assigned by trajectory index, and
	// reductions run in index order.
	Parallelism int
	// ResampleOnRestore, when non-nil, selects activities whose pending
	// delays are re-drawn from the entry marking instead of preserved when a
	// trajectory is cloned (see san.ResamplePredicate). For exponential
	// (memoryless) delays this is exactly distribution-preserving and
	// de-correlates the clones sharing an entry state, which otherwise
	// dominate the deepest level's variance; leave nil for non-exponential
	// delays.
	ResampleOnRestore san.ResamplePredicate
}

func (o Options) withDefaults() Options {
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

func (o Options) validate() error {
	if !(o.Mission > 0) {
		return fmt.Errorf("%w: mission %v", ErrBadOptions, o.Mission)
	}
	if len(o.Levels) == 0 {
		return fmt.Errorf("%w: no levels", ErrBadOptions)
	}
	for i := 1; i < len(o.Levels); i++ {
		if !(o.Levels[i] > o.Levels[i-1]) {
			return fmt.Errorf("%w: levels must be strictly increasing, got %v", ErrBadOptions, o.Levels)
		}
	}
	if len(o.Effort) != len(o.Levels) {
		return fmt.Errorf("%w: %d effort entries for %d levels", ErrBadOptions, len(o.Effort), len(o.Levels))
	}
	for i, n := range o.Effort {
		if n < 1 {
			return fmt.Errorf("%w: stage %d effort %d", ErrBadOptions, i, n)
		}
	}
	return nil
}

// StageResult reports one splitting stage.
type StageResult struct {
	// Level is the importance threshold this stage tried to reach.
	Level float64
	// Trials and Hits are the binomial counts of the stage.
	Trials int
	Hits   int
	// PoolSize is the number of entry snapshots the stage restarted from
	// (0 for the first stage, which starts fresh).
	PoolSize int
	// Events is the number of activity completions simulated in the stage.
	Events uint64
}

// ConditionalProbability returns Hits/Trials.
func (sr StageResult) ConditionalProbability() float64 {
	return float64(sr.Hits) / float64(sr.Trials)
}

// Estimate is the result of a splitting study.
type Estimate struct {
	// Probability is the product estimator of the rare-event probability.
	Probability float64
	// Interval is the delta-method confidence interval around Probability.
	Interval stats.Interval
	// Stages reports each level's counts.
	Stages []StageResult
	// TotalEvents is the number of activity completions simulated across
	// all stages — the budget spent, used for fair comparisons with naive
	// Monte Carlo.
	TotalEvents uint64
	// Options echoes the effective options.
	Options Options
}

// trajectoryOutcome is the per-trajectory result of one stage.
type trajectoryOutcome struct {
	crossed bool
	snap    *san.Snapshot
	events  uint64
	err     error
}

// Run estimates P(importance reaches Levels[len-1] within Mission) for the
// model by fixed-effort multilevel splitting. The model must be valid; it is
// shared read-only across worker goroutines, each of which owns a private
// simulator and stream.
func Run(model *san.Model, importance san.ImportanceFunc, opts Options) (*Estimate, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if importance == nil {
		return nil, fmt.Errorf("%w: nil importance function", ErrBadOptions)
	}
	master := rng.NewStream(opts.Seed, "splitting-master")
	// The "validate" split is still drawn so seed derivation is unchanged by
	// the compile-layer refactor; validation now happens in Compile, whose
	// result every trajectory's simulator shares.
	_ = master.Split("validate")
	cm, err := san.Compile(model, nil)
	if err != nil {
		return nil, err
	}

	est := &Estimate{Options: opts}
	var pool []*san.Snapshot
	sims := make([]*san.Simulator, max(1, opts.Parallelism))
	for stage := range opts.Levels {
		sr, next, err := runStage(cm, sims, importance, opts, master, stage, pool)
		if err != nil {
			return nil, err
		}
		est.Stages = append(est.Stages, sr)
		est.TotalEvents += sr.Events
		if len(next) == 0 {
			// Extinction: no trajectory reached this level, so deeper levels
			// are unreachable with this effort. Record the remaining stages
			// as untried (zero hits over the configured effort would claim
			// evidence we do not have), and stop.
			break
		}
		pool = next
	}

	counts := make([]stats.SplittingStage, len(est.Stages))
	for i, sr := range est.Stages {
		counts[i] = stats.SplittingStage{Trials: sr.Trials, Hits: sr.Hits}
	}
	ci, err := stats.ProductBinomialInterval(counts, opts.Confidence)
	if err != nil {
		return nil, err
	}
	if len(est.Stages) < len(opts.Levels) {
		// The product over completed stages only bounds the rare-event
		// probability from above; report zero with the bound as half width.
		ci.Mean = 0
		est.Probability = 0
	} else {
		est.Probability = ci.Mean
	}
	est.Interval = ci
	return est, nil
}

// runStage executes one fixed-effort stage: Effort[stage] trajectories
// aiming for Levels[stage], restarting from entries (round-robin) unless
// this is the first stage. sims holds one simulator slot per fan-out worker.
// It returns the stage counts and the snapshot pool for the next stage, in
// deterministic trajectory-index order.
func runStage(cm *san.CompiledModel, sims []*san.Simulator, importance san.ImportanceFunc, opts Options, master *rng.Stream, stage int, entries []*san.Snapshot) (StageResult, []*san.Snapshot, error) {
	effort := opts.Effort[stage]
	threshold := opts.Levels[stage]
	sr := StageResult{Level: threshold, Trials: effort, PoolSize: len(entries)}

	// Seeds are drawn from the master stream in trajectory order so the
	// study is reproducible and independent of scheduling.
	seeds := make([]uint64, effort)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}

	outcomes := make([]trajectoryOutcome, effort)
	fanout.For(effort, opts.Parallelism, func(w, i int) {
		outcomes[i] = runTrajectory(cm, &sims[w], importance, opts, stage, threshold, seeds[i], entries, i)
	})

	var pool []*san.Snapshot
	for _, out := range outcomes {
		if out.err != nil {
			return StageResult{}, nil, out.err
		}
		sr.Events += out.events
		if out.crossed {
			sr.Hits++
			pool = append(pool, out.snap)
		}
	}
	return sr, pool, nil
}

// workerSimulator returns the simulator in a fan-out worker's slot, reset
// onto stream, building it on the worker's first trajectory. Every run
// resets the simulator's run state, so reuse changes no result.
func workerSimulator(cm *san.CompiledModel, slot **san.Simulator, stream *rng.Stream) (*san.Simulator, error) {
	if *slot == nil {
		sim, err := cm.NewSimulator(stream)
		if err != nil {
			return nil, err
		}
		*slot = sim
		return sim, nil
	}
	return *slot, (*slot).Reset(stream)
}

// runTrajectory runs one trajectory of a stage on the worker's simulator:
// from time 0 for the first stage, otherwise restarted from its round-robin
// entry snapshot with a fresh stream. It stops at the first crossing of the
// stage threshold.
func runTrajectory(cm *san.CompiledModel, slot **san.Simulator, importance san.ImportanceFunc, opts Options, stage int, threshold float64, seed uint64, entries []*san.Snapshot, index int) trajectoryOutcome {
	stream := rng.NewStream(seed, fmt.Sprintf("stage-%d-traj-%d", stage, index))
	sim, err := workerSimulator(cm, slot, stream)
	if err != nil {
		return trajectoryOutcome{err: err}
	}
	var out trajectoryOutcome
	mon := &san.Monitor{
		Importance: importance,
		Threshold:  threshold,
		OnCross: func(_ float64, snap *san.Snapshot) {
			out.crossed = true
			out.snap = snap
		},
		StopOnCross: true,
	}
	var res san.Result
	if stage == 0 {
		res, err = sim.RunMonitored(opts.Mission, mon)
		if err != nil {
			return trajectoryOutcome{err: err}
		}
		out.events = res.Events
	} else {
		entry := entries[index%len(entries)].Clone()
		// A fresh stream state makes the clone's future independent of its
		// siblings and of the parent trajectory; the residual completion
		// times in the snapshot are preserved — they are part of the state —
		// unless the caller opted into memoryless resampling.
		entry.Reseed(stream.Uint64())
		res, err = sim.RunFrom(entry, opts.Mission, mon, opts.ResampleOnRestore)
		if err != nil {
			return trajectoryOutcome{err: err}
		}
		out.events = res.Events - entry.Events
	}
	return out
}

// ---------------------------------------------------------------------------
// Naive Monte Carlo comparator
// ---------------------------------------------------------------------------

// NaiveOptions configures the naive Monte Carlo baseline estimate of the
// same transient probability, metered by simulated-event budget so the
// comparison with splitting is at equal cost.
type NaiveOptions struct {
	// Mission is the horizon T in hours.
	Mission float64
	// Level is the rare-event importance threshold.
	Level float64
	// EventBudget stops the study once this many activity completions have
	// been simulated (at least MinReplications replications always run).
	EventBudget uint64
	// MinReplications is the floor on replications (default 10).
	MinReplications int
	// MaxReplications caps the study when the model generates very few
	// events per replication (default 1e6).
	MaxReplications int
	// Confidence for the reported interval (default 0.95).
	Confidence float64
	// Seed seeds the master stream (default 1).
	Seed uint64
	// Parallelism is the number of worker goroutines (default GOMAXPROCS).
	Parallelism int
}

func (o NaiveOptions) withDefaults() NaiveOptions {
	if o.MinReplications == 0 {
		o.MinReplications = 10
	}
	if o.MaxReplications == 0 {
		o.MaxReplications = 1_000_000
	}
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// NaiveEstimate is the naive Monte Carlo result.
type NaiveEstimate struct {
	// Probability is the hit fraction.
	Probability float64
	// Interval is the binomial confidence interval (rule-of-three half
	// width when no hits were observed).
	Interval stats.Interval
	// Replications and Hits are the binomial counts.
	Replications int
	Hits         int
	// TotalEvents is the number of activity completions simulated.
	TotalEvents uint64
}

// naiveBatchSize is fixed (not tied to Parallelism) so the number of
// replications a budget buys is deterministic.
const naiveBatchSize = 64

// RunNaive estimates P(importance reaches Level within Mission) by standard
// Monte Carlo: independent replications from time 0, each stopping at its
// first crossing, until the event budget is exhausted. Replications run in
// fixed-size batches so the replication count depends only on the budget and
// seed, never on Parallelism.
func RunNaive(model *san.Model, importance san.ImportanceFunc, opts NaiveOptions) (*NaiveEstimate, error) {
	opts = opts.withDefaults()
	if !(opts.Mission > 0) {
		return nil, fmt.Errorf("%w: mission %v", ErrBadOptions, opts.Mission)
	}
	if importance == nil {
		return nil, fmt.Errorf("%w: nil importance function", ErrBadOptions)
	}
	master := rng.NewStream(opts.Seed, "naive-master")
	_ = master.Split("validate") // preserve historical seed derivation
	cm, err := san.Compile(model, nil)
	if err != nil {
		return nil, err
	}

	est := &NaiveEstimate{}
	sims := make([]*san.Simulator, max(1, opts.Parallelism))
	for est.Replications < opts.MaxReplications {
		batch := naiveBatchSize
		if rem := opts.MaxReplications - est.Replications; batch > rem {
			batch = rem
		}
		seeds := make([]uint64, batch)
		for i := range seeds {
			seeds[i] = master.Uint64()
		}
		outcomes := make([]trajectoryOutcome, batch)
		fanout.For(batch, opts.Parallelism, func(w, i int) {
			stream := rng.NewStream(seeds[i], fmt.Sprintf("naive-%d", i))
			sim, err := workerSimulator(cm, &sims[w], stream)
			if err != nil {
				outcomes[i] = trajectoryOutcome{err: err}
				return
			}
			var out trajectoryOutcome
			mon := &san.Monitor{
				Importance:  importance,
				Threshold:   opts.Level,
				OnCross:     func(float64, *san.Snapshot) { out.crossed = true },
				StopOnCross: true,
			}
			res, err := sim.RunMonitored(opts.Mission, mon)
			if err != nil {
				outcomes[i] = trajectoryOutcome{err: err}
				return
			}
			out.events = res.Events
			outcomes[i] = out
		})
		for _, out := range outcomes {
			if out.err != nil {
				return nil, out.err
			}
			est.Replications++
			est.TotalEvents += out.events
			if out.crossed {
				est.Hits++
			}
		}
		if est.Replications >= opts.MinReplications && est.TotalEvents >= opts.EventBudget {
			break
		}
	}

	ci, err := stats.BinomialProportionInterval(est.Hits, est.Replications, opts.Confidence)
	if err != nil {
		return nil, err
	}
	est.Probability = ci.Mean
	est.Interval = ci
	return est, nil
}
