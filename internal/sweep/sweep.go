// Package sweep runs multi-configuration simulation studies — the paper's
// Figure 4/5 scaling sweeps and the design-comparison tables — over one
// shared pool of workers.
//
// Evaluating a sweep point by point (a fresh abe.Evaluate per configuration)
// pays avoidable costs: a worker pool is spun up and drained per
// configuration (so every configuration's slowest replication idles the whole
// pool), and the composed model is rebuilt per evaluation. Run instead makes
// two passes over fanout.For. The pre-pass builds and compiles every point's
// model once, certifies it, and answers certified points analytically; the
// compiled models are then shared read-only. The points left over simulate in
// one san.RunStudies call, which schedules their (point, replication) jobs
// over a single pool, so slow large-scale configurations overlap with fast
// small ones, and each worker Resets one Simulator onto every replication's
// private stream.
//
// Determinism contract: seeds are derived per (configuration index,
// replication index) and outcomes are reduced in (configuration, replication)
// order, so a sweep is bit-identical across Parallelism settings, and every
// point is bit-identical to a standalone abe.Evaluate with the point's
// derived seed (see PointSeeds) — the same contract san.RunReplications
// provides for single studies.
package sweep

import (
	"errors"
	"fmt"

	"repro/internal/abe"
	"repro/internal/fanout"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/san"
	"repro/internal/stats"
)

// ErrNoPoints is returned by Run when the sweep is empty.
var ErrNoPoints = errors.New("sweep: no points to evaluate")

// Point is one configuration of a sweep.
type Point struct {
	// Label names the point in results and reports; empty means Config.Name.
	Label string
	// Config is the composed-model configuration evaluated at this point.
	Config abe.Config
	// Seed, when nonzero, pins the point's study seed explicitly — the
	// common-random-numbers technique: giving every design alternative the
	// same seed makes their comparison sharper than independent draws. Zero
	// (the default) derives an independent seed from the sweep seed and the
	// point index (see PointSeeds).
	Seed uint64
	// ForceSimulation opts the point out of the analytic solver tier even
	// when its model certifies: the point simulates, and the solver section
	// records the override. Cross-check points use it to simulate the exact
	// configuration the solver answers analytically, so the two tiers can be
	// compared on the same model.
	ForceSimulation bool
}

// label returns the effective label of the point.
func (p Point) label() string {
	if p.Label != "" {
		return p.Label
	}
	return p.Config.Name
}

// Solver records how a sweep point was answered: by the certified
// uniformization solver (exact, zero variance), by the same solver on a
// certified approximate phase-type surrogate (MethodUniformizationApprox,
// with the per-activity fit bounds in the certificate's Approximations), or
// by simulation — with the structural certificate or the structured refusal
// reasons as evidence.
type Solver struct {
	// Method is MethodUniformization, MethodUniformizationApprox, or
	// MethodSimulation.
	Method string
	// Reasons explains a simulation choice: the certificate's structured
	// refusals (Certificate.Refusals itself, per-activity reasons stated
	// once per replicate group), a solver error, or the point's
	// ForceSimulation override. Empty when the solver answered
	// analytically.
	Reasons []string
	// Certificate is the structural certificate when certification ran (it
	// is skipped under ForceSimulation).
	Certificate *san.Certificate
	// Cache is CacheMiss when this point's solver outcome was computed for
	// it and CacheHit when it was shared from an earlier point of the same
	// sweep with an equal abe.Config. Empty under ForceSimulation, where no
	// solver work is cacheable. Labels are assigned in point order, never by
	// execution timing, and a hit is byte-identical to a recompute.
	Cache string
}

// Solver methods.
const (
	MethodUniformization = "uniformization"
	// MethodUniformizationApprox marks an analytic answer computed on a
	// certified approximate phase-type surrogate of the model: exact for the
	// surrogate (zero-width intervals), within the per-activity CDF bounds
	// recorded in Certificate.Approximations of the true model. Never
	// reported as plain uniformization.
	MethodUniformizationApprox = "uniformization-approx"
	MethodSimulation           = "simulation"
)

// PointResult is the outcome of one sweep point.
type PointResult struct {
	// Label is the effective point label.
	Label string
	// Seed is the study seed the point was evaluated with; a standalone
	// abe.Evaluate with this seed (and the sweep's options) reproduces
	// Measures bit-identically.
	Seed uint64
	// Measures are the derived measures of the point's configuration.
	Measures abe.Measures
	// ModelStats is the model_stats view of the point: the size of the
	// model as evaluated (lumped where the configuration opts in) next to
	// its flat expansion.
	ModelStats abe.ModelStats
	// Solver records whether the point was answered analytically or by
	// simulation, and why.
	Solver Solver
}

// Result is the outcome of a sweep.
type Result struct {
	// Points holds one result per input point, in input order.
	Points []PointResult
	// Options echoes the effective sweep-level study options.
	Options san.Options
	// TotalEvents is the number of activity completions across every
	// replication of every point.
	TotalEvents uint64
}

// PointSeeds returns the n per-point study seeds Run derives from the sweep
// seed, in point order. Tests and callers use it to reproduce a single sweep
// point with a standalone abe.Evaluate.
func PointSeeds(seed uint64, n int) []uint64 {
	master := rng.NewStream(seed, "sweep-master")
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}
	return seeds
}

// pointPlan is what Run's pre-pass produces for one point: the study options,
// the compiled model (built for every point, forced ones included, and shared
// read-only afterwards), and, when the solver tier answered the point, its
// analytic rewards. Points without analytic rewards simulate in one
// san.RunStudies call.
type pointPlan struct {
	opts     san.Options // effective study options (Seed = the point's seed)
	compiled *san.CompiledModel
	analytic map[string]float64
	solver   Solver
	err      error
}

// build composes and compiles the model for cfg.
func build(cfg abe.Config) (*san.CompiledModel, error) {
	model := san.NewModel(cfg.Name)
	mp, err := abe.Build(model, cfg)
	if err != nil {
		return nil, err
	}
	return san.Compile(model, mp.Rewards())
}

// Run evaluates every point of the sweep under the given study options
// (opts.Seed is the sweep-level master seed; opts.Parallelism sizes the
// worker pool of the pre-pass, whose workers certify and solve their points
// on their own goroutines, and of the simulations). It returns per-point
// measures in input order. Solver outcomes are deduplicated within the sweep
// by configuration: points with equal abe.Config values certify and solve
// once, and a hit is invisible in the results except for the per-point
// Solver.Cache label.
func Run(points []Point, opts san.Options) (*Result, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.WithDefaults()

	// Validate configurations eagerly so a typo in point 7 fails before any
	// simulation effort is spent on points 0-6.
	for i, pt := range points {
		if err := pt.Config.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: point %d (%s): %w", i, pt.label(), err)
		}
	}

	derived := PointSeeds(opts.Seed, len(points))
	plans := make([]pointPlan, len(points))
	seeds := make([]uint64, len(points))
	for i, pt := range points {
		seeds[i] = derived[i]
		if pt.Seed != 0 {
			seeds[i] = pt.Seed
		}
		ptOpts := opts
		ptOpts.Seed = seeds[i]
		plans[i].opts = ptOpts.WithDefaults()
	}

	// Pre-pass: build every point, then answer certified points by
	// uniformization — exact, zero variance, no replications. Points whose
	// certificate is refused (or whose solve fails numerically) simulate,
	// with the structured reasons recorded; ForceSimulation skips
	// certification outright. Outcomes are memoized per abe.Config — the
	// only input abe.Build reads, while mission, solver tier and fit
	// tolerance are fixed for the whole sweep — so duplicate configurations
	// certify and solve once. Entries are created here, in point order, so
	// the first holder of a Config is the miss and every later holder a hit,
	// whichever worker computes the entry; the sync.Once per entry makes
	// concurrent duplicates block on the first computation instead of racing
	// it. Every memoized object is shared read-only afterwards.
	entries := make([]*solveEntry, len(points))
	labels := make([]string, len(points))
	cache := make(map[abe.Config]*solveEntry, len(points))
	for i, pt := range points {
		if pt.ForceSimulation {
			plans[i].solver = Solver{Method: MethodSimulation, Reasons: []string{"forced: point requests simulation"}}
			continue
		}
		e, ok := cache[pt.Config]
		if ok {
			labels[i] = CacheHit
		} else {
			e = &solveEntry{}
			cache[pt.Config] = e
			labels[i] = CacheMiss
		}
		entries[i] = e
	}
	fanout.For(len(points), opts.Parallelism, func(_, i int) {
		pp, e := &plans[i], entries[i]
		pp.compiled, pp.err = build(points[i].Config)
		if pp.err != nil || e == nil {
			return // build failed, or the point is forced to simulate
		}
		e.once.Do(func() {
			e.rewards, e.solver, e.err = solvePoint(pp.compiled, opts.Mission, opts.PHFitTolerance)
		})
		if e.err != nil {
			pp.err = e.err
			return
		}
		pp.analytic = e.rewards
		pp.solver = e.solver
		pp.solver.Cache = labels[i]
	})
	for i := range plans {
		if err := plans[i].err; err != nil {
			return nil, fmt.Errorf("sweep: point %d (%s): %w", i, points[i].label(), err)
		}
	}

	// The points the solver did not answer simulate as one batch of studies
	// over a shared pool, so slow large-scale points overlap with fast small
	// ones.
	var studies []san.Study
	var simulated []int // point index of each study
	for i := range plans {
		if plans[i].analytic == nil {
			studies = append(studies, san.Study{Model: plans[i].compiled, Options: plans[i].opts})
			simulated = append(simulated, i)
		}
	}
	simResults, err := san.RunStudies(studies, opts.Parallelism)
	if err != nil {
		var re *san.ReplicationError
		if errors.As(err, &re) {
			i := simulated[re.Study]
			return nil, fmt.Errorf("sweep: point %d (%s) replication %d: %w", i, points[i].label(), re.Replication, re.Err)
		}
		return nil, err
	}

	result := &Result{Options: opts, Points: make([]PointResult, 0, len(points))}
	for i, pt := range points {
		pp := &plans[i]
		var study *san.StudyResult
		if pp.analytic != nil {
			// Synthesize the study from the exact analytic answer: two
			// identical replications give the exact mean, zero variance, and
			// zero-width intervals through the unchanged reduction path.
			study = san.NewStudyResult(pp.compiled.Rewards(), pp.opts)
			res := san.Result{Rewards: pp.analytic, FinalTime: pp.opts.Mission}
			study.Add(res)
			study.Add(res)
		} else {
			study, simResults = simResults[0], simResults[1:]
		}
		m, err := abe.MeasuresFromStudy(pt.Config, study)
		if err != nil {
			return nil, fmt.Errorf("sweep: point %d (%s): %w", i, pt.label(), err)
		}
		// The model_stats view: size as evaluated next to the flat
		// expansion. Flat points read it off the already-built model; lumped
		// points (in any of their forms, including a direct Storage.Lumped
		// opt-in) pay one extra flat-expansion build for the comparison —
		// the lumped rebuild inside ModelStats is a few dozen objects.
		var ms abe.ModelStats
		if pt.Config.LumpsAnything() {
			var err error
			ms, err = pt.Config.ModelStats()
			if err != nil {
				return nil, fmt.Errorf("sweep: point %d (%s) model stats: %w", i, pt.label(), err)
			}
		} else {
			built := pp.compiled.Stats()
			ms = abe.ModelStats{
				Places: built.Places, Activities: built.Activities,
				FlatPlaces: built.Places, FlatActivities: built.Activities,
			}
		}
		result.TotalEvents += study.TotalEvents
		result.Points = append(result.Points, PointResult{
			Label: pt.label(), Seed: seeds[i], Measures: m, ModelStats: ms, Solver: pp.solver,
		})
	}
	return result, nil
}

// ---------------------------------------------------------------------------
// Machine-readable report
// ---------------------------------------------------------------------------

// Report is the machine-readable form of a sweep result (see Result.Report).
// The schema is documented in docs/statespace.md ("Report schema"); it
// deliberately excludes execution details such as Parallelism so reports are
// byte-identical however the sweep was scheduled.
type Report struct {
	MissionHours float64       `json:"mission_hours"`
	Replications int           `json:"replications"`
	Confidence   float64       `json:"confidence"`
	Seed         uint64        `json:"seed"`
	TotalEvents  uint64        `json:"total_events"`
	Points       []ReportPoint `json:"points"`
}

// ReportPoint is one sweep point of a Report.
type ReportPoint struct {
	Label                    string                    `json:"label"`
	Seed                     uint64                    `json:"seed"`
	OSSPairs                 int                       `json:"oss_pairs"`
	TotalDisks               int                       `json:"total_disks"`
	StorageAvailability      float64                   `json:"storage_availability"`
	CFSAvailability          float64                   `json:"cfs_availability"`
	ClusterUtility           float64                   `json:"cluster_utility"`
	DiskReplacementsPerWeek  float64                   `json:"disk_replacements_per_week"`
	LostJobsTransientPerYear float64                   `json:"lost_jobs_transient_per_year"`
	LostJobsCFSPerYear       float64                   `json:"lost_jobs_cfs_per_year"`
	ModelStats               ReportModelStats          `json:"model_stats"`
	Solver                   ReportSolver              `json:"solver"`
	Intervals                map[string]ReportInterval `json:"intervals"`
}

// ReportSolver records how the point was answered: "uniformization" when the
// structural certificate proved the solver preconditions and the point's
// measures are exact (zero-width intervals), "uniformization-approx" when the
// answer is exact for a certified approximate phase-type surrogate (the
// per-activity CDF distance bounds are in the certificate's approximations),
// "simulation" otherwise — with the certificate's structured refusals (or the
// ForceSimulation override, or a numerical solver error) as the reasons.
// The cache field is "miss" when the point's solver outcome was computed for
// it, "hit" when it was shared from an earlier point of the same sweep with
// an equal configuration, and absent under ForceSimulation; a hit is
// byte-identical to a recompute in every other field.
type ReportSolver struct {
	Method      string           `json:"method"`
	Cache       string           `json:"cache,omitempty"`
	Reasons     []string         `json:"reasons,omitempty"`
	Certificate *san.Certificate `json:"certificate,omitempty"`
}

// ReportModelStats is the model_stats view of a point: the size of the
// model as evaluated (lumped where the configuration opted in) next to its
// flat expansion.
type ReportModelStats struct {
	Places         int  `json:"places"`
	Activities     int  `json:"activities"`
	FlatPlaces     int  `json:"flat_places"`
	FlatActivities int  `json:"flat_activities"`
	Lumped         bool `json:"lumped"`
}

// ReportInterval is a confidence interval in a Report, in the same units as
// the headline field it accompanies.
type ReportInterval struct {
	Mean       float64 `json:"mean"`
	HalfWidth  float64 `json:"half_width"`
	Confidence float64 `json:"confidence"`
	N          int     `json:"n"`
}

func reportInterval(ci stats.Interval) ReportInterval {
	return ReportInterval{Mean: ci.Mean, HalfWidth: ci.HalfWidth, Confidence: ci.Confidence, N: ci.N}
}

// Report returns the machine-readable form of the result.
func (r *Result) Report() Report {
	rep := Report{
		MissionHours: r.Options.Mission,
		Replications: r.Options.Replications,
		Confidence:   r.Options.Confidence,
		Seed:         r.Options.Seed,
		TotalEvents:  r.TotalEvents,
		Points:       make([]ReportPoint, 0, len(r.Points)),
	}
	for _, pt := range r.Points {
		m := pt.Measures
		p := ReportPoint{
			Label:                    pt.Label,
			Seed:                     pt.Seed,
			OSSPairs:                 m.Config.TotalOSSPairs(),
			TotalDisks:               m.Config.Storage.TotalDisks(),
			StorageAvailability:      m.StorageAvailability,
			CFSAvailability:          m.CFSAvailability,
			ClusterUtility:           m.ClusterUtility,
			DiskReplacementsPerWeek:  m.DiskReplacementsPerWeek,
			LostJobsTransientPerYear: m.LostJobsTransientPerYear,
			LostJobsCFSPerYear:       m.LostJobsCFSPerYear,
			ModelStats: ReportModelStats{
				Places:         pt.ModelStats.Places,
				Activities:     pt.ModelStats.Activities,
				FlatPlaces:     pt.ModelStats.FlatPlaces,
				FlatActivities: pt.ModelStats.FlatActivities,
				Lumped:         pt.ModelStats.Lumped,
			},
			Solver: ReportSolver{
				Method:      pt.Solver.Method,
				Cache:       pt.Solver.Cache,
				Reasons:     pt.Solver.Reasons,
				Certificate: pt.Solver.Certificate,
			},
			Intervals: make(map[string]ReportInterval, len(m.Intervals)),
		}
		// Map-to-map copy; JSON encoding sorts the keys, so visit order
		// never reaches the report bytes.
		for name, ci := range m.Intervals { //lint:sorted
			p.Intervals[name] = reportInterval(ci)
		}
		rep.Points = append(rep.Points, p)
	}
	return rep
}

// JSON returns the sweep result as indented JSON (map keys sorted, execution
// details excluded), suitable for diffing and downstream plotting.
func (r *Result) JSON() (string, error) { return report.ToJSON(r.Report()) }

// Table renders the sweep as a design-comparison style text table.
func (r *Result) Table(title string) report.Table {
	t := report.Table{
		Title: title,
		Headers: []string{
			"Point", "Storage availability", "CFS availability", "Cluster utility", "Disks replaced/week",
		},
	}
	for _, pt := range r.Points {
		m := pt.Measures
		t.AddRow(pt.Label,
			fmt.Sprintf("%.5f", m.StorageAvailability),
			fmt.Sprintf("%.4f", m.CFSAvailability),
			fmt.Sprintf("%.4f", m.ClusterUtility),
			fmt.Sprintf("%.2f", m.DiskReplacementsPerWeek),
		)
	}
	return t
}
