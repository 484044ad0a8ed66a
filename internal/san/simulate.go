package san

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/des"
	"repro/internal/fanout"
	"repro/internal/rng"
	"repro/internal/stats"
)

// marking is the simulator's mutable token vector. It records which places
// changed during an activity completion so that only dependent activities
// need to be re-evaluated.
type marking struct {
	tokens  []int
	touched []int  // indices of places changed since last clearTouched
	dirty   []bool // per-place "already recorded as touched" flag
}

func newMarking(initial []int) *marking {
	tokens := make([]int, len(initial))
	copy(tokens, initial)
	return &marking{tokens: tokens, dirty: make([]bool, len(initial))}
}

// Tokens implements MarkingReader.
func (m *marking) Tokens(p *Place) int { return m.tokens[p.index] }

// SetTokens implements MarkingWriter.
func (m *marking) SetTokens(p *Place, n int) {
	if n < 0 {
		panic(fmt.Errorf("%w: place %q set to %d", ErrNegativeTokens, p.name, n))
	}
	if m.tokens[p.index] != n {
		m.tokens[p.index] = n
		m.touch(p.index)
	}
}

// Add implements MarkingWriter.
func (m *marking) Add(p *Place, delta int) {
	m.SetTokens(p, m.tokens[p.index]+delta)
}

func (m *marking) touch(idx int) {
	if !m.dirty[idx] {
		m.dirty[idx] = true
		m.touched = append(m.touched, idx)
	}
}

func (m *marking) clearTouched() {
	for _, idx := range m.touched {
		m.dirty[idx] = false
	}
	m.touched = m.touched[:0]
}

// Result holds the reward values of a single replication.
type Result struct {
	// Rewards maps reward-variable name to its value for this replication.
	Rewards map[string]float64
	// Events is the number of activity completions executed.
	Events uint64
	// FinalTime is the simulation end time (the mission time).
	FinalTime float64
}

// Simulator runs terminating simulations of a SAN model. It is a light
// per-worker handle over a shared, immutable CompiledModel: all structure
// and derived indexes live on the compiled model, so constructing a
// Simulator from one (CompiledModel.NewSimulator) is O(activities) — just
// the per-simulator scratch — rather than the O(model) validation and index
// derivation Compile performs. The scratch includes the run state, which
// every Run, RunMonitored and RunFrom resets rather than reallocates, so a
// Simulator runs one replication at a time: a Monitor callback must not start
// another run on the simulator that called it.
type Simulator struct {
	cm     *CompiledModel
	stream *rng.Stream

	// run is the state of the current replication, and onComplete the
	// completion callback its engine runs (built once, so runs allocate no
	// closure).
	run        runState
	onComplete func(id int, now float64)

	// seenGeneration/currentGeneration implement an allocation-free "visited
	// this event" set over activities for reconcile.
	seenGeneration    []uint64
	currentGeneration uint64

	// maxInstFirings bounds consecutive instantaneous completions at one
	// time instant to detect ill-formed models (vanishing-marking loops).
	maxInstFirings int

	// masses is selectCase's scratch for the case masses of one completion.
	masses []float64
}

// impulseBinding couples a reward index with the impulse function to apply.
type impulseBinding struct {
	rewardIndex int
	fn          ImpulseFunc
}

// ErrUnstableModel reports a model that fires instantaneous activities in an
// unbounded loop without time advancing.
var ErrUnstableModel = errors.New("san: instantaneous activity loop (unstable model)")

// Reset prepares the simulator to run another independent replication
// drawing randomness from stream. Every run starts by resetting the run state
// the simulator keeps, so Reset only swaps the random stream; the compiled
// model — which depends solely on the immutable model and reward variables —
// and the run state's storage are kept, making Reset+Run much cheaper than
// constructing a new Simulator for every replication of a large composed
// model.
func (s *Simulator) Reset(stream *rng.Stream) error {
	if stream == nil {
		return errors.New("san: nil random stream")
	}
	s.stream = stream
	return nil
}

// runState is the per-replication mutable state. The engine's ids are
// activity indexes: it holds each timed activity's pending completion.
type runState struct {
	mark   *marking
	engine *des.Engine

	// Reward accumulation.
	rateAccum []float64 // integral of rate reward so far
	lastRate  []float64 // rate value since last marking change
	lastTime  float64
	impulses  []float64

	// err records a fatal model error (e.g. ErrUnstableModel) raised inside an
	// event handler, where it cannot be returned directly; Run surfaces it.
	err error

	// monitor, when non-nil, observes the importance function after every
	// completion; crossed latches the first threshold upcrossing.
	monitor *Monitor
	crossed bool
}

func newRunState(cm *CompiledModel) runState {
	return runState{
		mark:      newMarking(cm.initial),
		engine:    des.NewEngine(cm.model.NumActivities()),
		rateAccum: make([]float64, len(cm.rewards)),
		lastRate:  make([]float64, len(cm.rewards)),
		impulses:  make([]float64, len(cm.rewards)),
	}
}

// startRun resets the simulator's run state to the initial marking at time 0,
// with nothing scheduled and nothing accumulated, observed by mon.
func (s *Simulator) startRun(mon *Monitor) *runState {
	st := &s.run
	st.mark.clearTouched()
	copy(st.mark.tokens, s.cm.initial)
	st.engine.Reset()
	clear(st.rateAccum)
	clear(st.lastRate)
	clear(st.impulses)
	st.lastTime = 0
	st.err = nil
	st.monitor = mon
	st.crossed = false
	return st
}

// finishRun closes out reward integration at the mission end and assembles
// the replication result.
func (s *Simulator) finishRun(st *runState, mission float64) Result {
	s.integrateRates(st, mission)
	res := Result{Rewards: make(map[string]float64, len(s.cm.rewards)), Events: st.engine.Fired(), FinalTime: mission}
	for i, rv := range s.cm.rewards {
		switch rv.Mode {
		case TimeAveraged:
			res.Rewards[rv.Name] = (st.rateAccum[i] + st.impulses[i]) / mission
		case Accumulated:
			res.Rewards[rv.Name] = st.rateAccum[i] + st.impulses[i]
		case InstantAtEnd:
			if rv.Rate != nil {
				res.Rewards[rv.Name] = rv.Rate(st.mark)
			}
		}
	}
	return res
}

// Run executes a single terminating replication over [0, mission] hours and
// returns the reward values.
func (s *Simulator) Run(mission float64) (Result, error) {
	return s.RunMonitored(mission, nil)
}

// RunMonitored executes a single terminating replication like Run, observing
// mon (if non-nil) after initialization and after every activity completion.
// Rare-event drivers use the monitor to detect importance-threshold
// crossings and to snapshot the trajectory state at the crossing.
func (s *Simulator) RunMonitored(mission float64, mon *Monitor) (Result, error) {
	if !(mission > 0) || math.IsInf(mission, 0) || math.IsNaN(mission) {
		return Result{}, fmt.Errorf("san: invalid mission time %v", mission)
	}
	st := s.startRun(mon)

	// Resolve initial instantaneous activities, then schedule enabled timed
	// activities, then capture initial reward rates.
	if err := s.fireInstantaneous(st); err != nil {
		return Result{}, err
	}
	for _, a := range s.cm.model.activities {
		s.refreshActivity(st, a)
	}
	s.snapshotRates(st)
	// The initial marking may already sit at or above the threshold. Engine.Run
	// clears the stop flag on entry, so an absorbing crossing at t=0 must skip
	// the run rather than rely on observe's Stop call.
	s.observe(st, 0)

	if !(st.crossed && mon.StopOnCross) {
		st.engine.Run(mission, s.onComplete)
	}
	if st.err != nil {
		return Result{}, st.err
	}
	return s.finishRun(st, mission), nil
}

// snapshotRates records the current reward rates so that the next
// integration step uses the post-change values.
func (s *Simulator) snapshotRates(st *runState) {
	for i, rv := range s.cm.rewards {
		if rv.Rate != nil {
			st.lastRate[i] = rv.Rate(st.mark)
		}
	}
}

// integrateRates advances the rate-reward integrals from st.lastTime to now.
func (s *Simulator) integrateRates(st *runState, now float64) {
	dt := now - st.lastTime
	if dt > 0 {
		for i := range s.cm.rewards {
			st.rateAccum[i] += st.lastRate[i] * dt
		}
		st.lastTime = now
	}
}

// refreshActivity reconciles the scheduling state of a single activity with
// the current marking: scheduling a completion if it became enabled,
// canceling if it became disabled, or resampling if reactivation is on.
func (s *Simulator) refreshActivity(st *runState, a *Activity) {
	if a.kind != Timed {
		return
	}
	enabled := a.enabled(st.mark)
	_, _, pending := st.engine.Pending(a.index)
	switch {
	case enabled && !pending:
		s.scheduleCompletion(st, a)
	case !enabled && pending:
		st.engine.Cancel(a.index)
	case enabled && pending && a.reactivate:
		// Rescheduling replaces the pending completion and takes the next
		// sequence number, exactly like a cancel followed by a schedule.
		s.scheduleCompletion(st, a)
	}
}

func (s *Simulator) scheduleCompletion(st *runState, a *Activity) {
	d := a.delay(st.mark)
	delay := d.Sample(s.stream)
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	if err := st.engine.Schedule(a.index, st.engine.Now()+delay); err != nil {
		// Schedule only fails for NaN/past times, which the clamp above
		// prevents; treat any residual failure as a disabled activity.
		st.engine.Cancel(a.index)
	}
}

// complete fires activity a at time now: integrates rewards up to now, fires
// a (marking change and impulse rewards), and reconciles the activities whose
// enabling may have changed.
func (s *Simulator) complete(st *runState, a *Activity, now float64) {
	// A timed activity may have been disabled and re-enabled between
	// scheduling and firing only via Cancel, so reaching here means it is
	// still enabled; still, guard against stale enabling caused by gate
	// functions that mutate undeclared places.
	if !a.enabled(st.mark) {
		s.refreshActivity(st, a)
		return
	}
	s.integrateRates(st, now)
	s.fire(st, a)

	if err := s.fireInstantaneous(st); err != nil {
		// Record the instability and stop the run; Run returns the error to
		// its caller instead of silently delivering truncated-run rewards.
		st.err = err
		st.engine.Stop()
		return
	}
	changed := len(st.mark.touched) > 0
	s.currentGeneration++
	gen := s.currentGeneration
	s.reconcile(st, gen)
	// The completed activity may still (or again) be enabled — e.g. a source
	// activity with no input arcs — and is not necessarily covered by the
	// dependency index, so reconcile it explicitly. The generation check
	// skips the duplicate when reconcile already refreshed it, which for
	// reactivating aggregate activities (the lumped hot path) would
	// otherwise cancel and resample the same completion twice per firing.
	if s.seenGeneration[a.index] != gen {
		s.seenGeneration[a.index] = gen
		s.refreshActivity(st, a)
	}
	// Reward rates are functions of the marking alone, so a completion that
	// changed nothing (e.g. a pure impulse source) cannot have moved them.
	if changed {
		s.snapshotRates(st)
	}
	s.observe(st, now)
}

// observe evaluates the monitor's importance function against its threshold
// after a state change at time now, firing the crossing callback on the
// first upcrossing.
func (s *Simulator) observe(st *runState, now float64) {
	mon := st.monitor
	if mon == nil || st.crossed || mon.Importance == nil {
		return
	}
	if mon.Importance(st.mark) < mon.Threshold {
		return
	}
	st.crossed = true
	if mon.OnCross != nil {
		mon.OnCross(now, s.snapshot(st, now))
	}
	if mon.StopOnCross {
		st.engine.Stop()
	}
}

// fire completes activity a on the run's marking by the completion rule
// (fire.go), drawing the case, and earns a's impulse rewards.
func (s *Simulator) fire(st *runState, a *Activity) {
	a.FireInput(st.mark)
	if c := s.selectCase(st, a); c != nil {
		c.FireOutput(st.mark)
	}
	s.cm.AddImpulses(a, st.mark, st.impulses)
}

// selectCase draws a case of a from its CaseMasses at the post-input marking.
// Activities without cases return nil; a single case is returned without a
// draw.
func (s *Simulator) selectCase(st *runState, a *Activity) *Case {
	switch len(a.cases) {
	case 0:
		return nil
	case 1:
		return &a.cases[0]
	}
	if cap(s.masses) < len(a.cases) {
		s.masses = make([]float64, len(a.cases))
	}
	masses := s.masses[:len(a.cases)]
	total := a.CaseMasses(st.mark, masses)
	u := s.stream.Float64() * total
	cum := 0.0
	for i, p := range masses {
		cum += p
		if u < cum {
			return &a.cases[i]
		}
	}
	return &a.cases[len(a.cases)-1]
}

// fireInstantaneous repeatedly fires enabled instantaneous activities until
// none remain enabled, returning ErrUnstableModel if the loop does not
// terminate within the configured bound.
func (s *Simulator) fireInstantaneous(st *runState) error {
	if len(s.cm.instantaneous) == 0 {
		return nil
	}
	for iter := 0; ; iter++ {
		if iter > s.maxInstFirings {
			return fmt.Errorf("%w after %d firings", ErrUnstableModel, iter)
		}
		fired := false
		for _, a := range s.cm.instantaneous {
			if a.enabled(st.mark) {
				s.fire(st, a)
				fired = true
			}
		}
		if !fired {
			return nil
		}
	}
}

// reconcile refreshes the scheduling state of every activity that depends on
// a place whose marking changed during the last completion, marking each as
// visited in generation gen (allocated by the caller, who may use it to
// avoid refreshing the completed activity twice).
func (s *Simulator) reconcile(st *runState, gen uint64) {
	if len(st.mark.touched) == 0 {
		return
	}
	for _, idx := range st.mark.touched {
		for _, a := range s.cm.dependents[idx] {
			if s.seenGeneration[a.index] != gen {
				s.seenGeneration[a.index] = gen
				s.refreshActivity(st, a)
			}
		}
	}
	st.mark.clearTouched()
}

// ---------------------------------------------------------------------------
// Replication runner
// ---------------------------------------------------------------------------

// Options configures a replicated terminating simulation study.
//
// The zero value of every field means "use the default"; any other value is
// taken literally and must be sensible — Validate rejects nonsense (negative
// mission times, one replication, confidence levels at or above 1) instead of
// silently remapping it.
type Options struct {
	// Mission is the length of each replication in hours. Zero means the
	// default of 8760 (one year).
	Mission float64
	// Replications is the number of independent replications. Zero means the
	// default of 100; a study needs at least 2.
	Replications int
	// Confidence is the confidence level for reported intervals, in (0, 1).
	// Zero means the default of 0.95, matching the paper.
	Confidence float64
	// Seed seeds the master random stream. Zero means the default seed 1, so
	// that the zero Options value is fully specified; pass any nonzero seed
	// for a different reproducible study.
	Seed uint64
	// Parallelism is the number of worker goroutines. Zero means the default
	// of GOMAXPROCS.
	Parallelism int
	// PHFitTolerance, when positive, opts a study into the approximate
	// phase-type fitting solver tier: after exact expansion fails, the sweep
	// engine may adopt fitted surrogates (FitPhases) whose certified CDF
	// distance bounds stay within this tolerance, labeling every such answer
	// as approximate with the per-activity bounds. Zero (the default) keeps
	// the tier off: refused points fall back to simulation. Must be in
	// [0, 1); there is no non-zero default because adopting an approximation
	// is the caller's explicit decision.
	PHFitTolerance float64
}

// Validate rejects option values that are neither a zero "use the default"
// marker nor a usable setting. RunReplications (and the sweep engine built on
// it) call Validate before applying defaults, so a negative mission or a
// 99.9% confidence typo fails loudly instead of producing misbehaving
// studies.
func (o Options) Validate() error {
	if o.Mission < 0 || math.IsNaN(o.Mission) || math.IsInf(o.Mission, 0) {
		return fmt.Errorf("san: invalid mission time %v (zero means the one-year default)", o.Mission)
	}
	if o.Replications < 0 || o.Replications == 1 {
		return fmt.Errorf("san: invalid replication count %d: a study needs at least 2 (zero means the default of 100)", o.Replications)
	}
	if o.Confidence < 0 || o.Confidence >= 1 || math.IsNaN(o.Confidence) {
		return fmt.Errorf("san: confidence %v outside (0,1) (zero means the default 0.95)", o.Confidence)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("san: negative parallelism %d (zero means GOMAXPROCS)", o.Parallelism)
	}
	if o.PHFitTolerance < 0 || o.PHFitTolerance >= 1 || math.IsNaN(o.PHFitTolerance) {
		return fmt.Errorf("san: phase-fit tolerance %v outside [0,1) (zero keeps the approximate tier off)", o.PHFitTolerance)
	}
	return nil
}

// WithDefaults returns a copy of the options with every zero field replaced
// by its documented default. It does not validate; callers that accept
// user-supplied options should call Validate first.
func (o Options) WithDefaults() Options {
	if o.Mission == 0 {
		o.Mission = 8760
	}
	if o.Replications == 0 {
		o.Replications = 100
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

// StudyResult aggregates reward estimates across replications.
type StudyResult struct {
	// Summaries maps reward names to their cross-replication summaries.
	Summaries map[string]*stats.Summary
	// Options echoes the effective options used.
	Options Options
	// TotalEvents is the number of activity completions across all
	// replications.
	TotalEvents uint64
}

// NewStudyResult returns an empty study with one summary per reward variable
// and the given (effective) options. Replication results are folded in with
// Add; callers that run replications themselves use this together with
// ReplicationSeeds so their reductions are bit-identical to RunReplications.
func NewStudyResult(rewards []RewardVariable, opts Options) *StudyResult {
	r := &StudyResult{Summaries: make(map[string]*stats.Summary, len(rewards)), Options: opts}
	for _, rv := range rewards {
		r.Summaries[rv.Name] = stats.NewSummary()
	}
	return r
}

// Add folds one replication result into the study. Welford accumulation in
// stats.Summary is order-sensitive in floating point, so callers must Add
// results in replication-index order to keep studies bit-identical across
// Parallelism settings.
func (r *StudyResult) Add(res Result) {
	r.TotalEvents += res.Events
	// Each reward folds into its own independent Summary, so the visit
	// order across names cannot affect any accumulated value.
	for name, value := range res.Rewards { //lint:sorted
		if s, ok := r.Summaries[name]; ok {
			s.Add(value)
		}
	}
}

// Interval returns the confidence interval of the named reward at the
// study's confidence level.
func (r *StudyResult) Interval(reward string) (stats.Interval, error) {
	s, ok := r.Summaries[reward]
	if !ok {
		return stats.Interval{}, fmt.Errorf("san: unknown reward %q", reward)
	}
	return s.ConfidenceInterval(r.Options.Confidence)
}

// Mean returns the mean of the named reward across replications, or NaN when
// the reward is unknown.
func (r *StudyResult) Mean(reward string) float64 {
	s, ok := r.Summaries[reward]
	if !ok {
		return math.NaN()
	}
	return s.Mean()
}

// studySeeds derives the validation stream and the per-replication seeds of a
// study from opts.Seed. The derivation is part of the reproducibility
// contract: seeds are drawn from a master stream in replication order (after
// one reserved split for the validation simulator), so results do not depend
// on which worker picks a job up. opts must already have defaults applied.
func studySeeds(opts Options) (*rng.Stream, []uint64) {
	master := rng.NewStream(opts.Seed, "study-master")
	validate := master.Split("validate")
	seeds := make([]uint64, opts.Replications)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}
	return validate, seeds
}

// ReplicationSeeds returns the per-replication seeds RunReplications and
// RunStudies derive from opts.Seed (defaults applied). A caller that runs a
// study's replications itself uses it, with ReplicationStream and
// NewStudyResult, to stay bit-identical to a RunReplications call with the
// same options.
func ReplicationSeeds(opts Options) []uint64 {
	_, seeds := studySeeds(opts.WithDefaults())
	return seeds
}

// ReplicationStream returns the random stream replication rep of a study is
// run with, given its derived seed. It is the other half of the contract
// exposed by ReplicationSeeds.
func ReplicationStream(seed uint64, rep int) *rng.Stream {
	return rng.NewStream(seed, fmt.Sprintf("rep-%d", rep))
}

// RunReplications runs opts.Replications independent terminating simulations
// of the model and aggregates each reward variable across replications. The
// model is compiled once (validation plus index derivation) and the study runs
// through RunStudies on opts.Parallelism workers.
func RunReplications(model *Model, rewards []RewardVariable, opts Options) (*StudyResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	cm, err := Compile(model, rewards)
	if err != nil {
		return nil, err
	}
	results, err := RunStudies([]Study{{Model: cm, Options: opts}}, opts.WithDefaults().Parallelism)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// Study is one replicated simulation study: a compiled model and the options
// it runs under. RunStudies ignores Options.Parallelism; its workers argument
// sizes the pool every study shares.
type Study struct {
	Model   *CompiledModel
	Options Options
}

// ReplicationError reports the replication whose simulation failed in
// RunStudies. It unwraps to the simulator's error.
type ReplicationError struct {
	// Study and Replication index the failed replication.
	Study, Replication int
	Err                error
}

func (e *ReplicationError) Error() string {
	return fmt.Sprintf("san: study %d replication %d: %v", e.Study, e.Replication, e.Err)
}

func (e *ReplicationError) Unwrap() error { return e.Err }

// RunStudies runs the replications of every study over one pool of workers
// goroutines and returns one StudyResult per study, in study order. Each
// study's options are validated and defaulted as RunReplications does, and its
// replication seeds and streams are RunReplications' (ReplicationSeeds,
// ReplicationStream), so each result is bit-identical to a standalone
// RunReplications of that study at any workers. Jobs are handed out
// study-major, so slow studies overlap with fast ones; each worker keeps one
// Simulator and Resets it onto every replication's stream, building a new one
// only when it moves on to the next study. The error of a failed replication,
// the first in (study, replication) order, is a *ReplicationError.
func RunStudies(studies []Study, workers int) ([]*StudyResult, error) {
	type job struct {
		study, rep int
		seed       uint64
	}
	opts := make([]Options, len(studies))
	var jobs []job
	for s, st := range studies {
		if err := st.Options.Validate(); err != nil {
			return nil, fmt.Errorf("san: study %d: %w", s, err)
		}
		opts[s] = st.Options.WithDefaults()
		// studySeeds still reserves the historical "validate" split before
		// drawing replication seeds, so seed derivation is unchanged by the
		// compile-layer refactor.
		_, seeds := studySeeds(opts[s])
		for rep, seed := range seeds {
			jobs = append(jobs, job{study: s, rep: rep, seed: seed})
		}
	}

	// One outcome slot per job, so the reduction below runs in (study,
	// replication) order regardless of which worker finished when.
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	type workerSim struct {
		study int
		sim   *Simulator
	}
	sims := make([]workerSim, max(1, min(workers, len(jobs))))
	fanout.For(len(jobs), workers, func(w, i int) {
		j, ws := jobs[i], &sims[w]
		stream := ReplicationStream(j.seed, j.rep)
		if ws.sim == nil || ws.study != j.study {
			sim, err := studies[j.study].Model.NewSimulator(stream)
			if err != nil {
				errs[i] = err
				return
			}
			*ws = workerSim{study: j.study, sim: sim}
		} else if err := ws.sim.Reset(stream); err != nil {
			errs[i] = err
			return
		}
		results[i], errs[i] = ws.sim.Run(opts[j.study].Mission)
	})

	// Reduce in replication-index order: Welford accumulation in
	// stats.Summary is order-sensitive in floating point, so folding in
	// completion order would make same-seed studies differ across worker
	// counts.
	out := make([]*StudyResult, len(studies))
	for s, st := range studies {
		out[s] = NewStudyResult(st.Model.rewards, opts[s])
	}
	for i, j := range jobs {
		if errs[i] != nil {
			return nil, &ReplicationError{Study: j.study, Replication: j.rep, Err: errs[i]}
		}
		out[j.study].Add(results[i])
	}
	return out, nil
}
