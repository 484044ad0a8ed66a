package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/abe"
	"repro/internal/raid"
	"repro/internal/san"
	"repro/internal/statespace"
	"repro/internal/sweep"
)

// quick returns cheap options for CI-speed experiment runs.
func quick() Options {
	return Options{Quick: true, Replications: 6, MissionHours: 4380, Seed: 5}
}

func TestTable1Outages(t *testing.T) {
	table, err := Table1Outages(quick())
	if err != nil {
		t.Fatal(err)
	}
	out := table.Render()
	if !strings.Contains(out, "Availability") {
		t.Errorf("Table 1 missing availability row:\n%s", out)
	}
	if !strings.Contains(out, raidCauseAny(out)) {
		t.Errorf("Table 1 has no outage cause rows:\n%s", out)
	}
	if len(table.Rows) < 3 {
		t.Errorf("Table 1 has %d rows, want at least a few outages", len(table.Rows))
	}
}

// raidCauseAny returns one of the known causes present in the output, or a
// string that will fail the containment check.
func raidCauseAny(out string) string {
	for _, c := range []string{"I/O hardware", "File system", "Network", "Batch system"} {
		if strings.Contains(out, c) {
			return c
		}
	}
	return "<<no cause found>>"
}

func TestTable2MountFailures(t *testing.T) {
	table, err := Table2MountFailures(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) == 0 {
		t.Error("Table 2 empty")
	}
}

func TestTable3JobStats(t *testing.T) {
	table, err := Table3JobStats(quick())
	if err != nil {
		t.Fatal(err)
	}
	out := table.Render()
	for _, want := range []string{"Total jobs submitted", "transient network errors", "other/file system errors"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 missing %q:\n%s", want, out)
		}
	}
}

func TestTable4DiskSurvival(t *testing.T) {
	table, err := Table4DiskSurvival(quick())
	if err != nil {
		t.Fatal(err)
	}
	out := table.Render()
	for _, want := range []string{"Weibull shape (MLE)", "Implied MTBF", "Failures per week"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 missing %q:\n%s", want, out)
		}
	}
}

func TestTable5Parameters(t *testing.T) {
	out := Table5Parameters().Render()
	for _, want := range []string{"Disk MTBF", "Number of DDN", "1200", "32000", "2-20", "8-80"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 5 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure1Composition(t *testing.T) {
	out, err := Figure1Composition()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Join(CLUSTER)", "SAN(CLIENT)", "Replicate(DDN_UNITS", "places=", "activities="} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestDiskSeriesLabel(t *testing.T) {
	s := DiskSeries{Shape: 0.7, AFRPercent: 2.92, Geometry: raid.TierGeometry{Data: 8, Parity: 2}, ReplaceHours: 4}
	if got := s.Label(); got != "0.7,2.92,8+2,4" {
		t.Errorf("Label = %q, want the paper's tuple format", got)
	}
}

func TestFigure2StorageAvailability(t *testing.T) {
	opts := quick()
	fig, err := Figure2StorageAvailability(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != len(Figure2Series()) {
		t.Fatalf("series = %d, want %d", len(fig.Series), len(Figure2Series()))
	}
	points := Figure2ScalePointsTB(true)
	for _, s := range fig.Series {
		if len(s.Points) != len(points) {
			t.Errorf("series %q has %d points, want %d", s.Name, len(s.Points), len(points))
		}
		for _, p := range s.Points {
			if p.Y < 0 || p.Y > 1 {
				t.Errorf("series %q availability %v out of [0,1]", s.Name, p.Y)
			}
		}
		// First data point (ABE scale) should be ~1 for every configuration,
		// the paper's key Figure 2 observation.
		if s.Points[0].Y < 0.999 {
			t.Errorf("series %q ABE-scale availability = %v, want ~1", s.Name, s.Points[0].Y)
		}
	}
}

func TestFigure3DiskReplacement(t *testing.T) {
	fig, err := Figure3DiskReplacement(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Simulated + analytic series per configuration.
	if len(fig.Series) != 2*len(Figure3Series()) {
		t.Fatalf("series = %d, want %d", len(fig.Series), 2*len(Figure3Series()))
	}
	// The ABE configuration at 480 disks must fall in the paper's observed
	// 0-2 replacements per week; higher AFR must replace more disks; and the
	// curves must grow with the number of disks.
	abeSeries := fig.SeriesY("0.7,2.92,8+2,4")
	if len(abeSeries) == 0 {
		t.Fatal("ABE series missing")
	}
	if abeSeries[0] < 0 || abeSeries[0] > 2 {
		t.Errorf("ABE replacements/week at 480 disks = %v, want 0-2", abeSeries[0])
	}
	if last := abeSeries[len(abeSeries)-1]; !(last > abeSeries[0]) {
		t.Errorf("replacements should grow with disk count: %v", abeSeries)
	}
	high := fig.SeriesY("0.7,8.76,8+2,4")
	low := fig.SeriesY("0.7,0.88,8+2,4")
	if len(high) == 0 || len(low) == 0 {
		t.Fatal("expected AFR series missing")
	}
	if !(high[len(high)-1] > low[len(low)-1]) {
		t.Errorf("higher AFR should need more replacements: %v vs %v", high, low)
	}
}

func TestFigure4AvailabilityAndCU(t *testing.T) {
	a, err := runFigure4(quick())
	if err != nil {
		t.Fatal(err)
	}
	fig := a.fig
	cfs := fig.SeriesY("CFS-Availability")
	storage := fig.SeriesY("Storage-availability")
	cu := fig.SeriesY("CU")
	spare := fig.SeriesY("CFS-Availability-spare-OSS")
	if len(cfs) == 0 || len(storage) == 0 || len(cu) == 0 || len(spare) == 0 {
		t.Fatalf("missing series: %+v", fig)
	}
	last := len(cfs) - 1
	if !(cfs[last] < cfs[0]) {
		t.Errorf("CFS availability should decrease with scale: %v", cfs)
	}
	if storage[last] < 0.99 {
		t.Errorf("storage availability should stay ~1: %v", storage)
	}
	if !(cu[last] < cfs[last]) {
		t.Errorf("CU should sit below CFS availability at petascale: %v vs %v", cu[last], cfs[last])
	}
	if !(spare[last] > cfs[last]) {
		t.Errorf("spare OSS should improve petascale availability: %v vs %v", spare[last], cfs[last])
	}
}

// TestFigure4CrossCheckAgreement is the solver-vs-simulation audit the
// figure4 sweep ships: the certified uniformization answer to the fully
// exponential mini configuration must agree with a 60-replication simulation
// of the same model within the simulation's own 95% confidence interval.
func TestFigure4CrossCheckAgreement(t *testing.T) {
	points := Figure4CrossCheckPoints(7)
	res, err := sweep.Run(points, san.Options{Mission: 8760, Replications: 60, Confidence: 0.95, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	analytic, twin := res.Points[0], res.Points[1]
	if analytic.Solver.Method != sweep.MethodUniformization {
		t.Fatalf("cross-check point solved by %q (reasons %v), want uniformization",
			analytic.Solver.Method, analytic.Solver.Reasons)
	}
	if analytic.Solver.Certificate == nil || !analytic.Solver.Certificate.Certified() {
		t.Fatalf("analytic point must carry a certified certificate: %+v", analytic.Solver.Certificate)
	}
	if twin.Solver.Method != sweep.MethodSimulation || len(twin.Solver.Reasons) == 0 {
		t.Fatalf("forced twin must simulate with a recorded reason: %+v", twin.Solver)
	}
	for _, name := range []string{abe.RewardStorageAvailability, abe.RewardCFSAvailability} {
		a := analytic.Measures.Intervals[name]
		ci := twin.Measures.Intervals[name]
		if a.HalfWidth != 0 {
			t.Errorf("%s: analytic interval must be exact (zero half-width), got %v", name, a.HalfWidth)
		}
		if ci.N != 60 || ci.HalfWidth <= 0 {
			t.Fatalf("%s: twin interval not a 60-replication estimate: %+v", name, ci)
		}
		if diff := math.Abs(a.Mean - ci.Mean); diff > ci.HalfWidth {
			t.Errorf("%s: analytic %v vs simulated %v ± %v — outside the 95%% CI",
				name, a.Mean, ci.Mean, ci.HalfWidth)
		}
	}
}

// TestFigure4ErlangCrossCheckAgreement is the phase-expansion twin of the
// cross-check above: the Erlang-repair mini configuration is refused as
// written (non-memoryless), becomes certified after san.ExpandPhases, and
// the expanded analytic answer must agree with a 60-replication simulation
// of the ORIGINAL (unexpanded) model within the simulation's own 95% CI.
func TestFigure4ErlangCrossCheckAgreement(t *testing.T) {
	points := Figure4ErlangCrossCheckPoints(7)
	res, err := sweep.Run(points, san.Options{Mission: 8760, Replications: 60, Confidence: 0.95, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	analytic, twin := res.Points[0], res.Points[1]
	if analytic.Solver.Method != sweep.MethodUniformization {
		t.Fatalf("Erlang point solved by %q (reasons %v), want uniformization after expansion",
			analytic.Solver.Method, analytic.Solver.Reasons)
	}
	cert := analytic.Solver.Certificate
	if cert == nil || !cert.Certified() {
		t.Fatalf("Erlang point must carry a certified certificate: %+v", cert)
	}
	if len(cert.Expansions) == 0 {
		t.Fatalf("certificate must record the phase expansion evidence: %+v", cert)
	}
	if !strings.Contains(cert.Summary(), "after phase expansion") {
		t.Fatalf("certificate summary must surface the expansion: %q", cert.Summary())
	}
	if twin.Solver.Method != sweep.MethodSimulation || len(twin.Solver.Reasons) == 0 {
		t.Fatalf("forced twin must simulate with a recorded reason: %+v", twin.Solver)
	}
	for _, name := range []string{abe.RewardStorageAvailability, abe.RewardCFSAvailability} {
		a := analytic.Measures.Intervals[name]
		ci := twin.Measures.Intervals[name]
		if a.HalfWidth != 0 {
			t.Errorf("%s: analytic interval must be exact (zero half-width), got %v", name, a.HalfWidth)
		}
		if ci.N != 60 || ci.HalfWidth <= 0 {
			t.Fatalf("%s: twin interval not a 60-replication estimate: %+v", name, ci)
		}
		if diff := math.Abs(a.Mean - ci.Mean); diff > ci.HalfWidth {
			t.Errorf("%s: expanded analytic %v vs simulated %v ± %v — outside the 95%% CI",
				name, a.Mean, ci.Mean, ci.HalfWidth)
		}
	}
}

// TestFigure4WeibullCrossCheckAgreement is the approximate-fitting twin of
// the cross-checks above: the Weibull-disk mini configuration is refused by
// both the plain certificate tier and exact expansion, becomes certified on
// a phase-type surrogate under san.FitPhases (opted in via PHFitTolerance),
// and the approximate analytic answer must agree with a 60-replication
// simulation of the ORIGINAL (Weibull) model within the simulation's own
// 95% CI widened by the certificate's stated per-activity bound.
func TestFigure4WeibullCrossCheckAgreement(t *testing.T) {
	points := Figure4WeibullCrossCheckPoints(7)
	res, err := sweep.Run(points, san.Options{
		Mission: 8760, Replications: 60, Confidence: 0.95, Seed: 7,
		PHFitTolerance: Figure4FitTolerance,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	analytic, twin := res.Points[0], res.Points[1]
	if analytic.Solver.Method != sweep.MethodUniformizationApprox {
		t.Fatalf("Weibull point solved by %q (reasons %v), want uniformization-approx after fitting",
			analytic.Solver.Method, analytic.Solver.Reasons)
	}
	cert := analytic.Solver.Certificate
	if cert == nil || !cert.Certified() {
		t.Fatalf("Weibull point must carry a certified certificate: %+v", cert)
	}
	if len(cert.Approximations) == 0 {
		t.Fatalf("certificate must record the fit evidence: %+v", cert)
	}
	bound := 0.0
	for _, ev := range cert.Approximations {
		if !(ev.Bound > 0 && ev.Bound <= Figure4FitTolerance) {
			t.Fatalf("fit %q bound %v outside (0, %v]", ev.Activity, ev.Bound, Figure4FitTolerance)
		}
		if ev.Bound > bound {
			bound = ev.Bound
		}
	}
	if !strings.Contains(cert.Summary(), "approximate") {
		t.Fatalf("certificate summary must surface the approximation: %q", cert.Summary())
	}
	if twin.Solver.Method != sweep.MethodSimulation || len(twin.Solver.Reasons) == 0 {
		t.Fatalf("forced twin must simulate with a recorded reason: %+v", twin.Solver)
	}
	for _, name := range []string{abe.RewardStorageAvailability, abe.RewardCFSAvailability} {
		a := analytic.Measures.Intervals[name]
		ci := twin.Measures.Intervals[name]
		if a.HalfWidth != 0 {
			t.Errorf("%s: approximate analytic interval must be exact for the surrogate (zero half-width), got %v",
				name, a.HalfWidth)
		}
		if ci.N != 60 || ci.HalfWidth <= 0 {
			t.Fatalf("%s: twin interval not a 60-replication estimate: %+v", name, ci)
		}
		if diff := math.Abs(a.Mean - ci.Mean); diff > ci.HalfWidth+bound {
			t.Errorf("%s: approximate analytic %v vs simulated %v ± %v — outside the CI widened by the certified bound %v",
				name, a.Mean, ci.Mean, ci.HalfWidth, bound)
		}
	}
}

// TestMiniErlangRefusedWithoutExpansion pins the before side of the story:
// the Erlang-repair mini configuration is refused by the plain certificate
// tier with a non-memoryless reason that names the expansion remedy.
func TestMiniErlangRefusedWithoutExpansion(t *testing.T) {
	cfg := abe.MiniErlang()
	m := san.NewModel(cfg.Name)
	mp, err := abe.Build(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := san.Compile(m, mp.Rewards())
	if err != nil {
		t.Fatal(err)
	}
	_, cert := statespace.Certify(cm, statespace.Options{})
	if cert.Certified() {
		t.Fatal("unexpanded Erlang config must be refused")
	}
	found := false
	for _, r := range cert.Refusals {
		if strings.HasPrefix(r, san.RefusalNonMemoryless) {
			found = true
			if !strings.Contains(r, "expandable into") {
				t.Errorf("refusal should name the expansion remedy: %q", r)
			}
		}
	}
	if !found {
		t.Fatalf("expected a non-memoryless refusal, got %v", cert.Refusals)
	}
}

func TestAblationCorrelation(t *testing.T) {
	fig, err := AblationCorrelation(quick())
	if err != nil {
		t.Fatal(err)
	}
	ys := fig.SeriesY("CFS-Availability")
	if len(ys) < 3 {
		t.Fatalf("ablation points = %d", len(ys))
	}
	if !(ys[len(ys)-1] < ys[0]) {
		t.Errorf("higher propagation probability should reduce availability: %v", ys)
	}
}

func TestAblationAnalyticVsSim(t *testing.T) {
	table, err := AblationAnalyticVsSim(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(table.Rows))
	}
}

func TestRunDispatch(t *testing.T) {
	opts := quick()
	for _, name := range []string{"table3", "table5", "figure1"} {
		out, err := Run(name, opts)
		if err != nil {
			t.Errorf("Run(%q): %v", name, err)
		}
		if out == "" {
			t.Errorf("Run(%q) produced no output", name)
		}
	}
	if _, err := Run("bogus", opts); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(Names()) != 14 {
		t.Errorf("Names() = %v", Names())
	}
}

func TestPaperFull(t *testing.T) {
	res, err := PaperFull(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 5 {
		t.Fatalf("tables = %d, want 5 (Tables 1-5)", len(res.Tables))
	}
	out := res.Render()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4",
		"Table 5: simulation model parameters derived from log analysis",
		"log-calibrated", "Round trip",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("paper_full rendering missing %q", want)
		}
	}

	// The sweep must run the *calibrated* configuration, not the hard-coded
	// ABE constants: its disk parameters must equal the derived rates.
	cal := res.Calibration
	for _, pt := range res.Sweep.Points {
		cfg := pt.Measures.Config
		if cfg.Storage.Disk.ShapeBeta != cal.Rates.DiskWeibullShape {
			t.Fatalf("sweep point %q disk shape %v, want derived %v", pt.Label, cfg.Storage.Disk.ShapeBeta, cal.Rates.DiskWeibullShape)
		}
		if cfg.Storage.Disk.MTBFHours != cal.Rates.DiskMTBFHours {
			t.Fatalf("sweep point %q disk MTBF %v, want derived %v", pt.Label, cfg.Storage.Disk.MTBFHours, cal.Rates.DiskMTBFHours)
		}
	}
	if got, want := len(res.Sweep.Points), 2*len(Figure4ScaleFactors(true)); got != want {
		t.Errorf("sweep points = %d, want %d (base + spare per factor)", got, want)
	}

	// Round trip: the statistically stable rates must re-derive tightly.
	for name, tol := range map[string]float64{
		"jobs_per_hour":     0.10,
		"cfs_availability":  0.05,
		"outages_per_month": 0.50,
	} {
		if got := res.RoundTrip.RelativeError[name]; !(got <= tol) {
			t.Errorf("round-trip %s error %v, want <= %v", name, got, tol)
		}
	}

	// JSON: one valid document with the sweep schema at the top level and a
	// calibration section.
	doc, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		MissionHours float64 `json:"mission_hours"`
		Points       []struct {
			Label string `json:"label"`
		} `json:"points"`
		Calibration struct {
			Population int `json:"population"`
			Parameters []struct {
				Name   string `json:"name"`
				Source string `json:"source"`
			} `json:"parameters"`
		} `json:"calibration"`
		RoundTrip struct {
			RelativeError map[string]float64 `json:"relative_error"`
		} `json:"round_trip"`
	}
	if err := json.Unmarshal([]byte(doc), &parsed); err != nil {
		t.Fatalf("paper_full JSON invalid: %v", err)
	}
	if parsed.MissionHours != 4380 || len(parsed.Points) != len(res.Sweep.Points) {
		t.Errorf("JSON sweep section wrong: %+v", parsed)
	}
	if parsed.Calibration.Population != 480 || len(parsed.Calibration.Parameters) < 10 {
		t.Errorf("JSON calibration section wrong: %+v", parsed.Calibration)
	}
	if len(parsed.RoundTrip.RelativeError) == 0 {
		t.Error("JSON round_trip section missing")
	}
}

func TestPaperFullDeterministicAcrossParallelism(t *testing.T) {
	serial := quick()
	serial.Parallelism = 1
	parallel := quick()
	parallel.Parallelism = 4
	a, err := PaperFull(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PaperFull(parallel)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if ja != jb {
		t.Error("paper_full JSON differs across parallelism settings")
	}
}

// TestFigure4SweepDeterministicAcrossParallelism pins the merge of the
// figure4 sweeps: run one after the other (parallelism 1) or side by side,
// they give the same report byte for byte.
func TestFigure4SweepDeterministicAcrossParallelism(t *testing.T) {
	var reports []string
	for _, par := range []int{1, 2} {
		opts := Options{Quick: true, Replications: 4, MissionHours: 2190, Seed: 5, Parallelism: par}
		res, err := Figure4Sweep(opts)
		if err != nil {
			t.Fatal(err)
		}
		j, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, j)
	}
	if reports[0] != reports[1] {
		t.Error("figure4 sweep JSON differs between parallelism 1 and 2")
	}
}

func TestExtensionCheckpoint(t *testing.T) {
	table, err := ExtensionCheckpoint(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (ABE, 4x, petascale)", len(table.Rows))
	}
	out := table.Render()
	for _, want := range []string{"ABE", "Petascale", "Utilization"} {
		if !strings.Contains(out, want) {
			t.Errorf("extension table missing %q:\n%s", want, out)
		}
	}
}

func TestRareEventDataLoss(t *testing.T) {
	// The experiment's own quick mode (not the cheaper quick() helper): the
	// acceptance criterion is that splitting's confidence interval is at
	// least 10x narrower than naive Monte Carlo's at equal event budget.
	tab, err := RareEventDataLoss(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Render()
	for _, want := range []string{"Multilevel splitting", "Naive Monte Carlo (equal budget)", "CI narrowing factor"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Parse the narrowing factor from its row ("<factor>x").
	var factor float64
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "CI narrowing factor") {
			continue
		}
		fields := strings.Fields(line)
		for _, f := range fields {
			if strings.HasSuffix(f, "x") {
				if _, err := fmt.Sscanf(f, "%fx", &factor); err == nil && factor > 0 {
					break
				}
			}
		}
	}
	if factor < 10 {
		t.Errorf("CI narrowing factor %.1fx below the 10x acceptance threshold:\n%s", factor, out)
	}
}

func TestRareEventConfigValid(t *testing.T) {
	cfg := RareEventConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	levels := cfg.DataLossLevels()
	if len(levels) != cfg.Geometry.Parity+1 {
		t.Errorf("levels %v for parity %d", levels, cfg.Geometry.Parity)
	}
	if levels[len(levels)-1] != float64(cfg.Geometry.Parity+1) {
		t.Errorf("top level %v, want %d", levels[len(levels)-1], cfg.Geometry.Parity+1)
	}
}
