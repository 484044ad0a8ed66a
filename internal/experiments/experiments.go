// Package experiments regenerates every table and figure of the paper's
// evaluation from the reimplemented substrates: the log-analysis tables
// (Tables 1-4), the parameter table (Table 5), the composed-model figure
// (Figure 1), and the simulation studies (Figures 2-4), plus two ablations
// (AblationCorrelation and AblationAnalyticVsSim).
package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/abe"
	"repro/internal/checkpoint"
	"repro/internal/loganalysis"
	"repro/internal/loggen"
	"repro/internal/raid"
	"repro/internal/rareevent"
	"repro/internal/report"
	"repro/internal/san"
	"repro/internal/sweep"
)

// Options controls the cost/accuracy trade-off of the simulation studies.
type Options struct {
	// Replications per design point (default 60, or 12 in Quick mode).
	Replications int
	// MissionHours per replication (default one year).
	MissionHours float64
	// Seed for reproducibility (default 1).
	Seed uint64
	// Parallelism is the number of worker goroutines for the simulation
	// studies (0 = GOMAXPROCS). Results are bit-identical across settings.
	Parallelism int
	// Quick trades accuracy for speed (fewer replications, fewer sweep
	// points); intended for benchmarks and CI.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Replications == 0 {
		if o.Quick {
			o.Replications = 12
		} else {
			o.Replications = 60
		}
	}
	if o.MissionHours == 0 {
		o.MissionHours = 8760
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) sanOptions() san.Options {
	return san.Options{
		Mission:      o.MissionHours,
		Replications: o.Replications,
		Confidence:   0.95,
		Seed:         o.Seed,
		Parallelism:  o.Parallelism,
	}
}

// ErrUnknownExperiment is returned by Run for unrecognized experiment names.
var ErrUnknownExperiment = errors.New("experiments: unknown experiment")

// ---------------------------------------------------------------------------
// Tables 1-4: log analysis on the synthetic ABE logs
// ---------------------------------------------------------------------------

// abeLogs generates the calibrated synthetic ABE logs (see loggen for why a
// synthetic substitute is used).
func abeLogs(seed uint64) (*loggen.Logs, error) {
	cfg := loggen.ABEConfig()
	if seed != 0 {
		cfg.Seed = seed
	}
	return loggen.Generate(cfg)
}

// Table1Outages reproduces Table 1: the outage list of the Lustre-FS with
// per-outage cause and duration, plus the availability estimate the paper
// derives from it (0.97-0.98).
func Table1Outages(opts Options) (report.Table, error) {
	opts = opts.withDefaults()
	logs, err := abeLogs(opts.Seed)
	if err != nil {
		return report.Table{}, err
	}
	return table1FromLogs(logs)
}

// table1FromLogs builds Table 1 from an already-generated log set.
func table1FromLogs(logs *loggen.Logs) (report.Table, error) {
	rep, err := loganalysis.AnalyzeOutages(logs.SAN)
	if err != nil {
		return report.Table{}, err
	}
	return table1FromReport(rep), nil
}

// table1FromReport builds Table 1 from an already-run outage analysis, so
// paper_full renders the exact analysis it calibrated from.
func table1FromReport(rep loganalysis.OutageReport) report.Table {
	t := report.Table{
		Title:   "Table 1: User notification of outage of the Lustre-FS (synthetic ABE log)",
		Headers: []string{"Cause of Failure", "Start time", "End time", "Hours"},
	}
	for _, o := range rep.Outages {
		t.AddRow(o.Cause, o.Start.Format("01/02/06 15:04"), o.End.Format("01/02/06 15:04"), fmt.Sprintf("%05.2f", o.Hours()))
	}
	t.AddRow("TOTAL", "", "", fmt.Sprintf("%.2f", rep.DowntimeHours))
	t.AddRow("Availability", "", "", fmt.Sprintf("%.4f", rep.Availability))
	return t
}

// Table2MountFailures reproduces Table 2: Lustre mount failures reported by
// compute nodes, aggregated per day.
func Table2MountFailures(opts Options) (report.Table, error) {
	opts = opts.withDefaults()
	logs, err := abeLogs(opts.Seed)
	if err != nil {
		return report.Table{}, err
	}
	return table2FromLogs(logs)
}

// table2FromLogs builds Table 2 from an already-generated log set.
func table2FromLogs(logs *loggen.Logs) (report.Table, error) {
	days, err := loganalysis.AnalyzeMountFailures(logs.Compute)
	if err != nil {
		return report.Table{}, err
	}
	return table2FromDays(days), nil
}

// table2FromDays builds Table 2 from an already-run mount-failure analysis.
func table2FromDays(days []loganalysis.MountFailureDay) report.Table {
	t := report.Table{
		Title:   "Table 2: Lustre mount failure notification by compute nodes (synthetic ABE log)",
		Headers: []string{"Date", "Nodes reporting mount failure"},
	}
	for _, d := range days {
		t.AddRow(d.Date.Format("01/02/06"), d.Nodes)
	}
	return t
}

// Table3JobStats reproduces Table 3: job execution statistics.
func Table3JobStats(opts Options) (report.Table, error) {
	opts = opts.withDefaults()
	logs, err := abeLogs(opts.Seed)
	if err != nil {
		return report.Table{}, err
	}
	return table3FromLogs(logs)
}

// table3FromLogs builds Table 3 from an already-generated log set.
func table3FromLogs(logs *loggen.Logs) (report.Table, error) {
	stats, err := loganalysis.AnalyzeJobs(logs.Compute)
	if err != nil {
		return report.Table{}, err
	}
	return table3FromStats(stats), nil
}

// table3FromStats builds Table 3 from an already-run job analysis.
func table3FromStats(stats loganalysis.JobStats) report.Table {
	t := report.Table{
		Title:   "Table 3: Job execution statistics for the ABE cluster (synthetic log)",
		Headers: []string{"Measure", "Value"},
	}
	t.AddRow("Total jobs submitted", stats.TotalJobs)
	t.AddRow("Total failures due to transient network errors", stats.TransientFailures)
	t.AddRow("Total failures due to other/file system errors", stats.OtherFailures)
	t.AddRow("Transient:other failure ratio", fmt.Sprintf("%.1f", stats.FailureRatio()))
	t.AddRow("Cluster utility (CU) from the log", fmt.Sprintf("%.4f", stats.ClusterUtility()))
	return t
}

// Table4DiskSurvival reproduces Table 4: the disk failure log and the
// Weibull survival analysis (the paper fits shape 0.6963571 +/- 0.1923109 on
// n=480 disks).
func Table4DiskSurvival(opts Options) (report.Table, error) {
	opts = opts.withDefaults()
	logs, err := abeLogs(opts.Seed)
	if err != nil {
		return report.Table{}, err
	}
	return table4FromLogs(logs, loggen.ABEConfig().Disks)
}

// table4FromLogs builds Table 4 from an already-generated log set and disk
// population.
func table4FromLogs(logs *loggen.Logs, population int) (report.Table, error) {
	disks, err := loganalysis.AnalyzeDisks(logs.SAN, population)
	if err != nil {
		return report.Table{}, err
	}
	return table4FromReport(disks, population), nil
}

// table4FromReport builds Table 4 from an already-run disk analysis.
func table4FromReport(disks loganalysis.DiskReport, population int) report.Table {
	t := report.Table{
		Title:   fmt.Sprintf("Table 4: Disk failure log and Weibull survival analysis (synthetic ABE log, n=%d)", population),
		Headers: []string{"Date", "Number of failed disks"},
	}
	for _, d := range disks.ByDay {
		t.AddRow(d.Date.Format("01/02/06"), d.Failures)
	}
	t.AddRow("Total failures", disks.TotalFailures)
	t.AddRow("Failures per week", fmt.Sprintf("%.2f", disks.PerWeek))
	t.AddRow("Weibull shape (MLE)", fmt.Sprintf("%.7f", disks.Fit.Shape))
	t.AddRow("Weibull shape std err", fmt.Sprintf("%.7f", disks.Fit.ShapeStdErr))
	t.AddRow("Implied MTBF (hours)", fmt.Sprintf("%.0f", disks.Fit.MTBF()))
	t.AddRow("Implied AFR", fmt.Sprintf("%.2f%%", disks.Fit.AFR()*100))
	return t
}

// Table5Parameters reproduces Table 5: the simulation model parameters and
// their ranges, checked against the ABE and petascale configurations.
func Table5Parameters() report.Table {
	abeCfg := abe.ABE()
	peta := abe.Petascale()
	t := report.Table{
		Title:   "Table 5: ABE cluster's simulation model parameters",
		Headers: []string{"Model parameter", "Range (paper)", "ABE value", "Petascale value"},
	}
	t.AddRow("Disk MTBF (hours)", "100000-3000000", abeCfg.Storage.Disk.MTBFHours, peta.Storage.Disk.MTBFHours)
	t.AddRow("Annualized Failure Rate (AFR)", "0.40%-8.6%", fmt.Sprintf("%.2f%%", abeCfg.Storage.Disk.AFR()*100), fmt.Sprintf("%.2f%%", peta.Storage.Disk.AFR()*100))
	t.AddRow("Weibull shape parameter", "0.6-1.0", abeCfg.Storage.Disk.ShapeBeta, peta.Storage.Disk.ShapeBeta)
	t.AddRow("Number of DDN", "2-20", abeCfg.Storage.DDNUnits, peta.Storage.DDNUnits)
	t.AddRow("Number of compute nodes", "1200-32000", abeCfg.Workload.ComputeNodes, peta.Workload.ComputeNodes)
	t.AddRow("Average time to replace disks (hours)", "1-12", abeCfg.Storage.Disk.ReplaceHours, peta.Storage.Disk.ReplaceHours)
	t.AddRow("Average time to replace hardware (hours)", "12-36", fmt.Sprintf("%g-%g", abeCfg.OSS.HWRepairLoHours, abeCfg.OSS.HWRepairHiHours), fmt.Sprintf("%g-%g", peta.OSS.HWRepairLoHours, peta.OSS.HWRepairHiHours))
	t.AddRow("Average time to fix software (hours)", "2-6", fmt.Sprintf("%g-%g", abeCfg.OSS.SWRepairLoHours, abeCfg.OSS.SWRepairHiHours), fmt.Sprintf("%g-%g", peta.OSS.SWRepairLoHours, peta.OSS.SWRepairHiHours))
	t.AddRow("Job requests per hour", "12-15", abeCfg.Workload.JobsPerHour, peta.Workload.JobsPerHour)
	t.AddRow("Hardware failure rate (per pair per 720h)", "1-2", 720/abeCfg.OSS.HWMTBFHours*2, 720/peta.OSS.HWMTBFHours*2)
	t.AddRow("Software failure rate (per pair per 720h)", "1-2", 720/abeCfg.OSS.SWMTBFHours*2, 720/peta.OSS.SWMTBFHours*2)
	t.AddRow("OSS units", "8-80", abeCfg.ScratchOSSPairs, peta.ScratchOSSPairs)
	t.AddRow("Correlated-failure propagation probability", "small p", abeCfg.OSS.PropagationProb, peta.OSS.PropagationProb)
	return t
}

// ---------------------------------------------------------------------------
// Figure 1: composed model
// ---------------------------------------------------------------------------

// Figure1Composition renders the replicate/join composition tree of the ABE
// model (the paper's Figure 1), validates that the composed model builds,
// and reports the model_stats view: the flat ABE model size next to the
// lumped size of its exponential-forms variant (the representation the
// petascale scaling points use).
func Figure1Composition() (string, error) {
	cfg := abe.ABE()
	model := san.NewModel(cfg.Name)
	if _, err := abe.Build(model, cfg); err != nil {
		return "", err
	}
	tree := abe.CompositionTree(cfg)
	lumped, err := cfg.WithExponentialForms().WithLumping(true).ModelStats()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s\nplaces=%d activities=%d\nmodel_stats (exponential forms, lumped): places=%d activities=%d (flat expansion: places=%d activities=%d)\n",
		tree.Render(), model.NumPlaces(), model.NumActivities(),
		lumped.Places, lumped.Activities, lumped.FlatPlaces, lumped.FlatActivities), nil
}

// ---------------------------------------------------------------------------
// Figure 2: storage availability vs scale
// ---------------------------------------------------------------------------

// DiskSeries identifies one curve of Figures 2 and 3 by the tuple the paper
// uses as the label: (Weibull shape, AFR %, RAID geometry, replacement hours).
type DiskSeries struct {
	Shape        float64
	AFRPercent   float64
	Geometry     raid.TierGeometry
	ReplaceHours float64
}

// Label renders the tuple the way the paper's legends do.
func (s DiskSeries) Label() string {
	return fmt.Sprintf("%.1f,%.2f,%d+%d,%g", s.Shape, s.AFRPercent, s.Geometry.Data, s.Geometry.Parity, s.ReplaceHours)
}

// Figure2Series are the curves plotted in Figure 2.
func Figure2Series() []DiskSeries {
	g82 := raid.TierGeometry{Data: 8, Parity: 2}
	g83 := raid.TierGeometry{Data: 8, Parity: 3}
	return []DiskSeries{
		{Shape: 0.6, AFRPercent: 8.76, Geometry: g82, ReplaceHours: 4},
		{Shape: 0.6, AFRPercent: 4.38, Geometry: g82, ReplaceHours: 4},
		{Shape: 0.7, AFRPercent: 2.92, Geometry: g82, ReplaceHours: 4}, // ABE
		{Shape: 0.6, AFRPercent: 8.76, Geometry: g83, ReplaceHours: 4}, // Blue Waters style parity
	}
}

// Figure2ScalePointsTB are the storage sizes (in TB) the sweep covers, from
// the ABE scratch partition (96 TB) toward the petascale target (12 PB).
// Quick mode uses a subset.
func Figure2ScalePointsTB(quick bool) []float64 {
	if quick {
		return []float64{96, 1536, 12288}
	}
	return []float64{96, 384, 1536, 6144, 12288}
}

// Figure2StorageAvailability reproduces Figure 2: the availability of the
// storage hardware (DDN units in isolation: RAID6 tiers + controllers) as the
// file system is scaled from 96 TB to 12 PB, for several
// (shape, AFR, geometry, replacement) configurations.
func Figure2StorageAvailability(opts Options) (report.Figure, error) {
	opts = opts.withDefaults()
	fig := report.Figure{
		Title:  "Figure 2: Availability of storage with respect to disk failures",
		XLabel: "storage size (TB)",
		YLabel: "storage availability",
	}
	base := raid.ABEStorage()
	for _, series := range Figure2Series() {
		for _, tb := range Figure2ScalePointsTB(opts.Quick) {
			cfg := base
			cfg.Geometry = series.Geometry
			cfg.Disk.ShapeBeta = series.Shape
			cfg.Disk.MTBFHours = 8760 / (series.AFRPercent / 100)
			cfg.Disk.ReplaceHours = series.ReplaceHours
			// Figure 2 scales by raw storage size with ABE-era disk
			// capacities (no capacity growth), as the x axis is terabytes of
			// the same architecture.
			scaled, err := cfg.ScaledToUsableTB(tb, 0, 0)
			if err != nil {
				return report.Figure{}, err
			}
			model := san.NewModel("figure2")
			sp, err := raid.BuildStorage(model, "storage", scaled)
			if err != nil {
				return report.Figure{}, err
			}
			rewards := []san.RewardVariable{sp.AvailabilityReward("storage_availability")}
			study, err := san.RunReplications(model, rewards, opts.sanOptions())
			if err != nil {
				return report.Figure{}, err
			}
			ci, err := study.Interval("storage_availability")
			if err != nil {
				return report.Figure{}, err
			}
			fig.AddPoint(series.Label(), report.Point{X: tb, Y: ci.Mean, HalfWidth: ci.HalfWidth})
		}
	}
	return fig, nil
}

// ---------------------------------------------------------------------------
// Figure 3: disk replacements per week vs number of disks
// ---------------------------------------------------------------------------

// Figure3Series are the curves plotted in Figure 3 (all at shape 0.7, 8+2,
// 4 h replacement, varying AFR).
func Figure3Series() []DiskSeries {
	g82 := raid.TierGeometry{Data: 8, Parity: 2}
	return []DiskSeries{
		{Shape: 0.7, AFRPercent: 8.76, Geometry: g82, ReplaceHours: 4},
		{Shape: 0.7, AFRPercent: 4.38, Geometry: g82, ReplaceHours: 4},
		{Shape: 0.7, AFRPercent: 2.92, Geometry: g82, ReplaceHours: 4}, // ABE
		{Shape: 0.7, AFRPercent: 0.88, Geometry: g82, ReplaceHours: 4},
	}
}

// Figure3ScalePointsDisks are the disk counts of the Figure 3 sweep
// (480 = ABE up to 4800).
func Figure3ScalePointsDisks(quick bool) []int {
	if quick {
		return []int{480, 2400, 4800}
	}
	return []int{480, 960, 1440, 1920, 2400, 2880, 3360, 3840, 4320, 4800}
}

// Figure3DiskReplacement reproduces Figure 3: the average number of disks
// that need to be replaced per week to sustain availability, as the system
// grows from 480 to 4800 disks. Simulated values carry confidence intervals;
// the analytic renewal-rate expectation is reported as its own series.
func Figure3DiskReplacement(opts Options) (report.Figure, error) {
	opts = opts.withDefaults()
	fig := report.Figure{
		Title:  "Figure 3: Average number of disks that need to be replaced per week",
		XLabel: "number of disks",
		YLabel: "disk replacements per week",
	}
	base := raid.ABEStorage()
	for _, series := range Figure3Series() {
		for _, disks := range Figure3ScalePointsDisks(opts.Quick) {
			cfg := base
			cfg.Geometry = series.Geometry
			cfg.Disk.ShapeBeta = series.Shape
			cfg.Disk.MTBFHours = 8760 / (series.AFRPercent / 100)
			cfg.Disk.ReplaceHours = series.ReplaceHours
			scaled, err := cfg.ScaledToDisks(disks)
			if err != nil {
				return report.Figure{}, err
			}
			model := san.NewModel("figure3")
			sp, err := raid.BuildStorage(model, "storage", scaled)
			if err != nil {
				return report.Figure{}, err
			}
			rewards := []san.RewardVariable{sp.ReplacementCountReward("replacements")}
			study, err := san.RunReplications(model, rewards, opts.sanOptions())
			if err != nil {
				return report.Figure{}, err
			}
			ci, err := study.Interval("replacements")
			if err != nil {
				return report.Figure{}, err
			}
			perWeek := 168.0 / study.Options.Mission
			fig.AddPoint(series.Label(), report.Point{X: float64(disks), Y: ci.Mean * perWeek, HalfWidth: ci.HalfWidth * perWeek})

			analytic, err := raid.ExpectedReplacementsPerWeek(scaled)
			if err != nil {
				return report.Figure{}, err
			}
			fig.AddPoint(series.Label()+" (analytic)", report.Point{X: float64(disks), Y: analytic})
		}
	}
	return fig, nil
}

// ---------------------------------------------------------------------------
// Figure 4: CFS availability and cluster utility vs scale
// ---------------------------------------------------------------------------

// Figure4ScaleFactors are the scale multipliers applied to the ABE I/O
// subsystem (1x = ABE ... 10x = petascale).
func Figure4ScaleFactors(quick bool) []float64 {
	if quick {
		return []float64{1, 4, 10}
	}
	return []float64{1, 2, 4, 6, 8, 10}
}

// Figure4Points builds the sweep points of the Figure 4 scaling study over
// the hard-coded ABE base configuration. It is the single source of truth
// shared by Figure4Sweep and the petascale_scaling example; the paper_full
// experiment uses Figure4PointsFrom with a log-calibrated base instead.
func Figure4Points(seed uint64, factors []float64) []sweep.Point {
	return Figure4PointsFrom(abe.ABE(), seed, factors)
}

// Figure4PointsFrom builds the sweep points of a Figure 4-style scaling
// study from the given base configuration: a (base, spare-OSS) pair per
// scale factor, in factor order, every point pinned to the given study seed
// (common random numbers), which keeps the spare-vs-base comparison at each
// scale sharper than independent draws would be.
func Figure4PointsFrom(base abe.Config, seed uint64, factors []float64) []sweep.Point {
	points := make([]sweep.Point, 0, 2*len(factors))
	for _, factor := range factors {
		cfg := base.ScaledBy(factor)
		points = append(points,
			sweep.Point{Config: cfg, Seed: seed},
			sweep.Point{Label: cfg.Name + " +spare OSS", Config: cfg.WithSpareOSS(true), Seed: seed},
		)
	}
	return points
}

// Figure4CrossCheckPoints returns the solver cross-check pair appended after
// the Figure 4 (base, spare) pairs: the fully exponential mini configuration
// once for the certified uniformization solver and once forced through the
// simulator, both pinned to the same seed. The pair puts an exact analytic
// answer and a simulation estimate of the same model side by side in every
// figure4 report, so the two tiers audit each other on every run.
func Figure4CrossCheckPoints(seed uint64) []sweep.Point {
	cfg := abe.MiniExponential()
	return []sweep.Point{
		{Label: cfg.Name + " [solver cross-check]", Config: cfg, Seed: seed},
		{Label: cfg.Name + " [simulated twin]", Config: cfg, Seed: seed, ForceSimulation: true},
	}
}

// Figure4ErlangCrossCheckPoints is the phase-type expansion counterpart of
// Figure4CrossCheckPoints: the Gamma-Erlang-repair mini configuration —
// which the certificate tier refuses as built (`non-memoryless`) and
// certifies only after san.ExpandPhases — once answered analytically through
// the expansion and once forced through simulation with the same seed. The
// pair audits the expansion's exactness end to end: the expanded analytic
// answer must land inside the simulation's 95% confidence interval.
func Figure4ErlangCrossCheckPoints(seed uint64) []sweep.Point {
	cfg := abe.MiniErlang()
	return []sweep.Point{
		{Label: cfg.Name + " [solver cross-check]", Config: cfg, Seed: seed},
		{Label: cfg.Name + " [simulated twin]", Config: cfg, Seed: seed, ForceSimulation: true},
	}
}

// Figure4FitTolerance is the certified CDF-distance tolerance the Weibull
// cross-check pair opts into: the shape-1.5 disk surrogate certifies a
// Kolmogorov bound well under it (~0.05), so the approximate analytic answer
// must agree with its simulated twin within the simulation interval widened
// by the per-activity bounds.
const Figure4FitTolerance = 0.1

// Figure4WeibullCrossCheckPoints is the approximate-fitting counterpart of
// Figure4ErlangCrossCheckPoints: the Weibull-disk mini configuration — which
// both the plain certificate tier and exact expansion refuse — once answered
// analytically on a certified phase-type surrogate (the sweep must opt in
// via san.Options.PHFitTolerance) and once forced through simulation with
// the same seed. The pair audits the fit's certified accuracy end to end:
// the approximate analytic answer must land inside the simulation's 95%
// confidence interval widened by the certificate's stated bound.
func Figure4WeibullCrossCheckPoints(seed uint64) []sweep.Point {
	cfg := abe.MiniWeibull()
	return []sweep.Point{
		{Label: cfg.Name + " [solver cross-check]", Config: cfg, Seed: seed},
		{Label: cfg.Name + " [simulated twin]", Config: cfg, Seed: seed, ForceSimulation: true},
	}
}

// Figure4Sweep runs the Figure 4 scaling study as one sharded sweep: base and
// spare-OSS variants of every scale factor are evaluated over a single shared
// worker pool, so the slow petascale points overlap with the fast ABE-scale
// ones instead of each draining its own pool. The solver cross-check pairs
// (Figure4CrossCheckPoints and the phase-type expansion twin of
// Figure4ErlangCrossCheckPoints) ride along after the figure's own points,
// and the Weibull pair (Figure4WeibullCrossCheckPoints) runs as a second
// small sweep with the approximate tier opted in — keeping PHFitTolerance
// off the figure's own points, whose Weibull-disk models must keep refusing
// straight to simulation without paying a fitted exploration each — and is
// merged after them.
func Figure4Sweep(opts Options) (*sweep.Result, error) {
	opts = opts.withDefaults()
	points := append(Figure4Points(opts.Seed, Figure4ScaleFactors(opts.Quick)), Figure4CrossCheckPoints(opts.Seed)...)
	points = append(points, Figure4ErlangCrossCheckPoints(opts.Seed)...)
	res, err := sweep.Run(points, opts.sanOptions())
	if err != nil {
		return nil, err
	}
	fitOpts := opts.sanOptions()
	fitOpts.PHFitTolerance = Figure4FitTolerance
	fitRes, err := sweep.Run(Figure4WeibullCrossCheckPoints(opts.Seed), fitOpts)
	if err != nil {
		return nil, err
	}
	res.Points = append(res.Points, fitRes.Points...)
	res.TotalEvents += fitRes.TotalEvents
	return res, nil
}

// figure4FromSweep projects the (base, spare) point pairs of the Figure 4
// sweep onto the figure's four series.
func figure4FromSweep(res *sweep.Result, factors []float64) report.Figure {
	fig := report.Figure{
		Title:  "Figure 4: Availability and utility of the ABE cluster when scaled to a petaflop-petabyte system",
		XLabel: "scale factor (x ABE I/O subsystem)",
		YLabel: "availability / utility",
	}
	for i, factor := range factors {
		measures := res.Points[2*i].Measures
		spareMeasures := res.Points[2*i+1].Measures
		storageCI := measures.Intervals[abe.RewardStorageAvailability]
		cfsCI := measures.Intervals[abe.RewardCFSAvailability]
		spareCI := spareMeasures.Intervals[abe.RewardCFSAvailability]
		fig.AddPoint("Storage-availability", report.Point{X: factor, Y: measures.StorageAvailability, HalfWidth: storageCI.HalfWidth})
		fig.AddPoint("CFS-Availability", report.Point{X: factor, Y: measures.CFSAvailability, HalfWidth: cfsCI.HalfWidth})
		fig.AddPoint("CU", report.Point{X: factor, Y: measures.ClusterUtility})
		fig.AddPoint("CFS-Availability-spare-OSS", report.Point{X: factor, Y: spareMeasures.CFSAvailability, HalfWidth: spareCI.HalfWidth})
	}
	return fig
}

// runFigure4 is the single construction path behind both the Figure 4 API
// and the abesim artifact: one sharded sweep, projected onto the figure.
func runFigure4(opts Options) (figure4Artifact, error) {
	opts = opts.withDefaults()
	res, err := Figure4Sweep(opts)
	if err != nil {
		return figure4Artifact{}, err
	}
	return figure4Artifact{fig: figure4FromSweep(res, Figure4ScaleFactors(opts.Quick)), res: res}, nil
}

// Figure4AvailabilityAndCU reproduces Figure 4: storage availability, CFS
// availability, cluster utility, and CFS availability with a standby-spare
// OSS, as the ABE design is scaled to a petaflop-petabyte system.
func Figure4AvailabilityAndCU(opts Options) (report.Figure, error) {
	a, err := runFigure4(opts)
	return a.fig, err
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

// AblationCorrelation sweeps the correlated-failure propagation probability
// p at petascale, isolating the effect the paper attributes the CFS
// availability drop to ("the reduction is mainly due to correlated failures
// in OSS and hardware").
func AblationCorrelation(opts Options) (report.Figure, error) {
	opts = opts.withDefaults()
	fig := report.Figure{
		Title:  "Ablation: effect of correlated-failure propagation probability on petascale CFS availability",
		XLabel: "propagation probability p",
		YLabel: "CFS availability",
	}
	ps := []float64{0, 0.01, 0.02, 0.05, 0.1}
	if opts.Quick {
		ps = []float64{0, 0.02, 0.1}
	}
	for _, p := range ps {
		cfg := abe.Petascale()
		cfg.OSS.PropagationProb = p
		measures, err := abe.Evaluate(cfg, opts.sanOptions())
		if err != nil {
			return report.Figure{}, err
		}
		ci := measures.Intervals[abe.RewardCFSAvailability]
		fig.AddPoint("CFS-Availability", report.Point{X: p, Y: measures.CFSAvailability, HalfWidth: ci.HalfWidth})
	}
	return fig, nil
}

// AblationAnalyticVsSim cross-checks the SAN simulation of a single RAID
// tier against the analytic birth-death model for exponential (shape=1)
// disks, the regime where both are exact.
func AblationAnalyticVsSim(opts Options) (report.Table, error) {
	opts = opts.withDefaults()
	t := report.Table{
		Title:   "Ablation: analytic (birth-death) vs simulated tier unavailability, exponential disks",
		Headers: []string{"Geometry", "MTBF (h)", "MTTR (h)", "Analytic unavailability", "Simulated unavailability"},
	}
	cases := []struct {
		geometry raid.TierGeometry
		mtbf     float64
		mttr     float64
	}{
		{raid.TierGeometry{Data: 1, Parity: 0}, 1000, 10},
		{raid.TierGeometry{Data: 4, Parity: 1}, 2000, 24},
		{raid.TierGeometry{Data: 8, Parity: 2}, 1000, 48},
	}
	for _, c := range cases {
		analytic, err := raid.TierUnavailabilityExponential(c.geometry, c.mtbf, c.mttr)
		if err != nil {
			return report.Table{}, err
		}
		cfg := raid.StorageConfig{
			DDNUnits:    1,
			TiersPerDDN: 1,
			Geometry:    c.geometry,
			Disk:        raid.DiskConfig{ShapeBeta: 1, MTBFHours: c.mtbf, ReplaceHours: c.mttr, CapacityGB: 250},
			// A practically unfailing controller isolates the disk effect.
			Controller: raid.ControllerConfig{MTBFHours: 1e9, RepairLoHours: 1, RepairHiHours: 2},
		}
		model := san.NewModel("ablation")
		sp, err := raid.BuildStorage(model, "storage", cfg)
		if err != nil {
			return report.Table{}, err
		}
		// The analytic model assumes exponential repair; approximate the
		// deterministic replacement comparison by matching means (documented
		// deviation — this ablation is a sanity cross-check, not an equality).
		rewards := []san.RewardVariable{sp.AvailabilityReward("availability")}
		study, err := san.RunReplications(model, rewards, opts.sanOptions())
		if err != nil {
			return report.Table{}, err
		}
		t.AddRow(c.geometry.String(), c.mtbf, c.mttr, fmt.Sprintf("%.3e", analytic), fmt.Sprintf("%.3e", 1-study.Mean("availability")))
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Rare-event acceleration: data-loss probability by importance splitting
// ---------------------------------------------------------------------------

// RareEventConfig returns the high-redundancy storage configuration the
// rare-event experiment estimates data loss for: a single (8+4) tier (the
// Blue Waters-style move beyond 8+3) whose fifth concurrent disk failure
// loses data. Parameters are chosen so the per-mission data-loss probability
// (~2e-5) is far below what the naive Monte Carlo budget can resolve while
// each splitting level's conditional probability stays individually
// estimable. The controller is made practically unfailing so the measure
// isolates disk-induced data loss.
func RareEventConfig() raid.StorageConfig {
	return raid.StorageConfig{
		DDNUnits:    1,
		TiersPerDDN: 1,
		Geometry:    raid.TierGeometry{Data: 8, Parity: 4},
		Disk: raid.DiskConfig{
			ShapeBeta:    1.0, // exponential lifetimes
			MTBFHours:    6000,
			ReplaceHours: 48,
			CapacityGB:   raid.DefaultDiskCapacityGB,
		},
		Controller: raid.ControllerConfig{MTBFHours: 1e12, RepairLoHours: 1, RepairHiHours: 2},
	}
}

// RareEventDataLoss estimates the probability that the high-redundancy
// configuration loses data (any tier exceeding its parity) within the
// mission, twice: by fixed-effort multilevel splitting and by naive Monte
// Carlo at the same simulated-event budget. The table demonstrates the point
// of the rare-event engine — at equal cost, the splitting confidence
// interval is orders of magnitude narrower than the naive one, which
// typically observes no event at all.
func RareEventDataLoss(opts Options) (report.Table, error) {
	opts = opts.withDefaults()
	cfg := RareEventConfig()
	model := san.NewModel("rare_event")
	sp, err := raid.BuildStorage(model, "storage", cfg)
	if err != nil {
		return report.Table{}, err
	}
	importance := sp.MaxFailedDisksImportance()
	levels := cfg.DataLossLevels()

	// Effort ramps toward the deeper levels: the first crossing is nearly
	// certain (one disk fails sometime during the year), while the deeper
	// conditional probabilities are a few percent and need the trajectories.
	base := 500
	if opts.Quick {
		base = 150
	}
	effort := make([]int, len(levels))
	for i := range effort {
		switch i {
		case 0:
			effort[i] = base
		case 1:
			effort[i] = 4 * base
		default:
			effort[i] = 5 * base
		}
	}
	split, err := rareevent.Run(model, importance, rareevent.Options{
		Mission: opts.MissionHours,
		Levels:  levels,
		Effort:  effort,
		Seed:    opts.Seed,
		// Disk lifetimes are exponential (ShapeBeta 1), so re-drawing the
		// pending failure times when a trajectory is cloned is exactly
		// distribution-preserving and keeps the clones of one entry state
		// from sharing the same frozen next-failure schedule. Replacement
		// completions (deterministic) are preserved.
		ResampleOnRestore: func(a *san.Activity) bool {
			return strings.HasSuffix(a.Name(), "/fail")
		},
	})
	if err != nil {
		return report.Table{}, err
	}

	naive, err := rareevent.RunNaive(model, importance, rareevent.NaiveOptions{
		Mission:     opts.MissionHours,
		Level:       levels[len(levels)-1],
		EventBudget: split.TotalEvents,
		Seed:        opts.Seed,
	})
	if err != nil {
		return report.Table{}, err
	}

	t := report.Table{
		Title: fmt.Sprintf("Rare event: P(data loss within %.0f h) for a %s tier, disk MTBF %.0f h, replace %.0f h",
			opts.MissionHours, cfg.Geometry, cfg.Disk.MTBFHours, cfg.Disk.ReplaceHours),
		Headers: []string{"Method", "Estimate", "95% CI half-width", "Trajectories", "Simulated events"},
	}
	t.AddRow("Multilevel splitting",
		fmt.Sprintf("%.3e", split.Probability),
		fmt.Sprintf("%.3e", split.Interval.HalfWidth),
		split.Interval.N,
		split.TotalEvents)
	t.AddRow("Naive Monte Carlo (equal budget)",
		fmt.Sprintf("%.3e", naive.Probability),
		fmt.Sprintf("%.3e", naive.Interval.HalfWidth),
		naive.Replications,
		naive.TotalEvents)
	for _, sr := range split.Stages {
		t.AddRow(fmt.Sprintf("  level %.0f (>= %.0f disks down)", sr.Level, sr.Level),
			fmt.Sprintf("p=%.4f", sr.ConditionalProbability()),
			fmt.Sprintf("hits %d/%d", sr.Hits, sr.Trials),
			sr.PoolSize,
			sr.Events)
	}
	ratio := math.Inf(1)
	if split.Interval.HalfWidth > 0 {
		ratio = naive.Interval.HalfWidth / split.Interval.HalfWidth
	}
	t.AddRow("CI narrowing factor (naive / splitting)", fmt.Sprintf("%.1fx", ratio), "acceptance: >= 10x", "", "")
	return t, nil
}

// ExtensionCheckpoint is the future-work extension the paper's introduction
// motivates: couple the measured CFS dependability to application-level
// checkpoint/restart efficiency and show how much of a petascale machine's
// time is left for useful computation.
func ExtensionCheckpoint(opts Options) (report.Table, error) {
	opts = opts.withDefaults()
	t := report.Table{
		Title: "Extension: checkpoint/restart efficiency implied by the CFS dependability",
		Headers: []string{
			"Configuration", "CFS availability", "Checkpoint (h)", "Optimal interval (h)",
			"Checkpoint overhead", "Rework overhead", "Utilization",
		},
	}
	cp := checkpoint.DefaultClusterParams()
	for _, cfg := range []abe.Config{abe.ABE(), abe.ABE().ScaledBy(4), abe.Petascale()} {
		measures, err := abe.Evaluate(cfg, opts.sanOptions())
		if err != nil {
			return report.Table{}, err
		}
		params, err := checkpoint.ForCluster(cfg, measures, cp)
		if err != nil {
			return report.Table{}, err
		}
		eff, err := checkpoint.Analyze(params)
		if err != nil {
			return report.Table{}, err
		}
		t.AddRow(cfg.Name,
			fmt.Sprintf("%.4f", measures.CFSAvailability),
			fmt.Sprintf("%.2f", eff.CheckpointHours),
			fmt.Sprintf("%.2f", eff.OptimalIntervalHours),
			fmt.Sprintf("%.1f%%", eff.CheckpointOverhead*100),
			fmt.Sprintf("%.1f%%", eff.ReworkOverhead*100),
			fmt.Sprintf("%.1f%%", eff.Utilization*100),
		)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Named dispatch (used by cmd/abesim)
// ---------------------------------------------------------------------------

// Names lists the experiments Run understands.
func Names() []string {
	return []string{
		"table1", "table2", "table3", "table4", "table5",
		"figure1", "figure2", "figure3", "figure4",
		"paper_full",
		"rare_event_dataloss",
		"ablation-correlation", "ablation-analytic",
		"extension-checkpoint",
	}
}

// figure4Artifact renders the Figure 4 series as text but exposes the richer
// sweep report — per-point measures with unit-scaled confidence intervals —
// as its machine-readable form.
type figure4Artifact struct {
	fig report.Figure
	res *sweep.Result
}

// Render returns the figure's text table.
func (a figure4Artifact) Render() string { return a.fig.Render() }

// JSON returns the sweep report behind the figure.
func (a figure4Artifact) JSON() (string, error) { return a.res.JSON() }

// RunArtifact executes the named experiment and returns its result as a
// report.Artifact, so callers choose between the human-readable rendering
// (Render) and the machine-readable one (JSON).
func RunArtifact(name string, opts Options) (report.Artifact, error) {
	switch name {
	case "table1":
		t, err := Table1Outages(opts)
		return t, err
	case "table2":
		t, err := Table2MountFailures(opts)
		return t, err
	case "table3":
		t, err := Table3JobStats(opts)
		return t, err
	case "table4":
		t, err := Table4DiskSurvival(opts)
		return t, err
	case "table5":
		return Table5Parameters(), nil
	case "figure1":
		s, err := Figure1Composition()
		return report.Text(s), err
	case "figure2":
		f, err := Figure2StorageAvailability(opts)
		return f, err
	case "figure3":
		f, err := Figure3DiskReplacement(opts)
		return f, err
	case "figure4":
		a, err := runFigure4(opts)
		if err != nil {
			return nil, err
		}
		return a, nil
	case "paper_full":
		r, err := PaperFull(opts)
		if err != nil {
			return nil, err
		}
		return r, nil
	case "rare_event_dataloss":
		t, err := RareEventDataLoss(opts)
		return t, err
	case "ablation-correlation":
		f, err := AblationCorrelation(opts)
		return f, err
	case "ablation-analytic":
		t, err := AblationAnalyticVsSim(opts)
		return t, err
	case "extension-checkpoint":
		t, err := ExtensionCheckpoint(opts)
		return t, err
	default:
		return nil, fmt.Errorf("%w: %q (known: %v)", ErrUnknownExperiment, name, Names())
	}
}

// Run executes the named experiment and returns its rendered text output.
func Run(name string, opts Options) (string, error) {
	a, err := RunArtifact(name, opts)
	if err != nil {
		return "", err
	}
	return a.Render(), nil
}
