package sweep

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/abe"
	"repro/internal/san"
)

// testOpts keeps the simulation-backed tests cheap: short missions, few
// replications, small ABE-scale models.
func testOpts() san.Options {
	return san.Options{Mission: 1000, Replications: 4, Seed: 33, Parallelism: 4}
}

func testPoints() []Point {
	return []Point{
		{Config: abe.ABE()},
		{Label: "ABE +spare OSS", Config: abe.ABE().WithSpareOSS(true)},
		{Config: abe.ABE().ScaledBy(2)},
	}
}

func TestSweepBitIdenticalAcrossParallelism(t *testing.T) {
	opts := testOpts()
	opts.Parallelism = 1
	seq, err := Run(testPoints(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 4
	par, err := Run(testPoints(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Points, par.Points) {
		t.Errorf("sweep results differ across Parallelism:\n1: %+v\n4: %+v", seq.Points, par.Points)
	}
	if seq.TotalEvents != par.TotalEvents {
		t.Errorf("event counts differ across Parallelism: %d vs %d", seq.TotalEvents, par.TotalEvents)
	}
	// The JSON reports (which exclude execution details) must be
	// byte-identical too.
	seqJSON, err := seq.JSON()
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := par.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if seqJSON != parJSON {
		t.Error("JSON reports differ across Parallelism")
	}
}

func TestSweepPointsMatchStandaloneEvaluate(t *testing.T) {
	// Every sweep point must be bit-identical to a standalone abe.Evaluate
	// with the point's derived seed — the contract that makes sweep results
	// auditable one configuration at a time.
	opts := testOpts()
	points := testPoints()
	res, err := Run(points, opts)
	if err != nil {
		t.Fatal(err)
	}
	seeds := PointSeeds(opts.Seed, len(points))
	for i, pt := range points {
		if res.Points[i].Seed != seeds[i] {
			t.Errorf("point %d seed = %d, want derived %d", i, res.Points[i].Seed, seeds[i])
		}
		standalone := opts
		standalone.Seed = seeds[i]
		want, err := abe.Evaluate(pt.Config, standalone)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Points[i].Measures, want) {
			t.Errorf("point %d (%s) differs from standalone Evaluate:\nsweep:      %+v\nstandalone: %+v",
				i, res.Points[i].Label, res.Points[i].Measures, want)
		}
	}
}

func TestSweepExplicitSeedPinsStudy(t *testing.T) {
	// A nonzero Point.Seed overrides derivation — the common-random-numbers
	// hook design comparisons use.
	opts := testOpts()
	const pinned = 777
	res, err := Run([]Point{{Config: abe.ABE(), Seed: pinned}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].Seed != pinned {
		t.Fatalf("seed = %d, want pinned %d", res.Points[0].Seed, pinned)
	}
	standalone := opts
	standalone.Seed = pinned
	want, err := abe.Evaluate(abe.ABE(), standalone)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Points[0].Measures, want) {
		t.Error("pinned-seed point differs from standalone Evaluate with the same seed")
	}
}

func TestSweepLabelsAndTable(t *testing.T) {
	res, err := Run(testPoints(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].Label != "ABE" {
		t.Errorf("default label = %q, want the config name", res.Points[0].Label)
	}
	if res.Points[1].Label != "ABE +spare OSS" {
		t.Errorf("explicit label = %q", res.Points[1].Label)
	}
	out := res.Table("Sweep").Render()
	for _, want := range []string{"ABE +spare OSS", "Storage availability", "Disks replaced/week"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestSweepJSONSchema(t *testing.T) {
	res, err := Run(testPoints(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	text, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		MissionHours float64 `json:"mission_hours"`
		Replications int     `json:"replications"`
		Confidence   float64 `json:"confidence"`
		Seed         uint64  `json:"seed"`
		TotalEvents  uint64  `json:"total_events"`
		Points       []struct {
			Label               string  `json:"label"`
			Seed                uint64  `json:"seed"`
			TotalDisks          int     `json:"total_disks"`
			CFSAvailability     float64 `json:"cfs_availability"`
			StorageAvailability float64 `json:"storage_availability"`
			Intervals           map[string]struct {
				Mean      float64 `json:"mean"`
				HalfWidth float64 `json:"half_width"`
				N         int     `json:"n"`
			} `json:"intervals"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(text), &doc); err != nil {
		t.Fatalf("sweep report is not valid JSON: %v\n%s", err, text)
	}
	if doc.MissionHours != 1000 || doc.Replications != 4 || doc.Seed != 33 {
		t.Errorf("report options wrong: %+v", doc)
	}
	if len(doc.Points) != 3 {
		t.Fatalf("report points = %d, want 3", len(doc.Points))
	}
	if doc.Points[2].TotalDisks != 2*480 {
		t.Errorf("scaled point disks = %d, want 960", doc.Points[2].TotalDisks)
	}
	for _, p := range doc.Points {
		if p.CFSAvailability <= 0 || p.CFSAvailability > 1 {
			t.Errorf("point %q CFS availability %v out of range", p.Label, p.CFSAvailability)
		}
		ci, ok := p.Intervals[abe.RewardCFSAvailability]
		if !ok || ci.N != 4 {
			t.Errorf("point %q missing CFS interval (or wrong n): %+v", p.Label, p.Intervals)
		}
	}
	if doc.TotalEvents == 0 {
		t.Error("report records no simulated events")
	}
}

func TestSweepErrors(t *testing.T) {
	if _, err := Run(nil, testOpts()); !errors.Is(err, ErrNoPoints) {
		t.Errorf("empty sweep error = %v, want ErrNoPoints", err)
	}
	// Invalid study options are rejected before any work.
	bad := testOpts()
	bad.Confidence = 1.5
	if _, err := Run(testPoints(), bad); err == nil {
		t.Error("invalid options accepted")
	}
	// An invalid configuration fails eagerly and names the point.
	broken := []Point{{Config: abe.ABE()}, {Label: "broken", Config: abe.Config{}}}
	_, err := Run(broken, testOpts())
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	if !strings.Contains(err.Error(), "broken") || !strings.Contains(err.Error(), "point 1") {
		t.Errorf("error %q does not locate the broken point", err)
	}
}

func TestPointSeedsDeterministic(t *testing.T) {
	a := PointSeeds(9, 5)
	b := PointSeeds(9, 5)
	if !reflect.DeepEqual(a, b) {
		t.Error("PointSeeds not deterministic")
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Errorf("duplicate point seed %d", s)
		}
		seen[s] = true
	}
	if c := PointSeeds(10, 5); reflect.DeepEqual(a, c) {
		t.Error("different sweep seeds produced identical point seeds")
	}
}

func TestSweepReportModelStats(t *testing.T) {
	// Every point carries the model_stats view; a lumped point reports a
	// smaller evaluated model than its flat expansion, a flat point reports
	// identical sizes.
	points := []Point{
		{Config: abe.ABE()},
		{Label: "ABE lumped", Config: abe.ABE().WithExponentialForms().WithLumping(true)},
	}
	res, err := Run(points, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	flat := res.Points[0].ModelStats
	if flat.Lumped || flat.Places == 0 || flat.Places != flat.FlatPlaces || flat.Activities != flat.FlatActivities {
		t.Errorf("flat point model_stats inconsistent: %+v", flat)
	}
	lumped := res.Points[1].ModelStats
	if !lumped.Lumped || lumped.Places >= lumped.FlatPlaces || lumped.Activities >= lumped.FlatActivities {
		t.Errorf("lumped point model_stats inconsistent: %+v", lumped)
	}
	if lumped.FlatPlaces != flat.FlatPlaces || lumped.FlatActivities != flat.FlatActivities {
		t.Errorf("flat expansions differ: %+v vs %+v", lumped, flat)
	}
	text, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Points []struct {
			ModelStats struct {
				Places         int  `json:"places"`
				Activities     int  `json:"activities"`
				FlatPlaces     int  `json:"flat_places"`
				FlatActivities int  `json:"flat_activities"`
				Lumped         bool `json:"lumped"`
			} `json:"model_stats"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(text), &doc); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if len(doc.Points) != 2 || !doc.Points[1].ModelStats.Lumped || doc.Points[1].ModelStats.Places == 0 {
		t.Errorf("model_stats missing from JSON report: %+v", doc.Points)
	}
}

// TestSweepFitTierOptIn pins the approximate tier's opt-in contract: the
// Weibull-disk mini configuration simulates under default options (never
// silently approximate), and with PHFitTolerance set it is answered by the
// solver on a certified surrogate, labeled uniformization-approx, with the
// per-activity bounds in the certificate.
func TestSweepFitTierOptIn(t *testing.T) {
	point := []Point{{Config: abe.MiniWeibull()}}

	off := san.Options{Mission: 1000, Replications: 2, Seed: 5}
	resOff, err := Run(point, off)
	if err != nil {
		t.Fatal(err)
	}
	solver := resOff.Points[0].Solver
	if solver.Method != MethodSimulation {
		t.Fatalf("without opt-in the Weibull point must simulate, got %q", solver.Method)
	}
	if len(solver.Reasons) == 0 || !strings.HasPrefix(solver.Reasons[0], san.RefusalNonMemoryless) {
		t.Fatalf("refusals must stay classified: %v", solver.Reasons)
	}

	on := off
	on.PHFitTolerance = 0.1
	resOn, err := Run(point, on)
	if err != nil {
		t.Fatal(err)
	}
	solver = resOn.Points[0].Solver
	if solver.Method != MethodUniformizationApprox {
		t.Fatalf("with opt-in the Weibull point must answer approximately, got %q (reasons %v)",
			solver.Method, solver.Reasons)
	}
	cert := solver.Certificate
	if cert == nil || !cert.Certified() || len(cert.Approximations) == 0 {
		t.Fatalf("approximate answer must carry certified fit evidence: %+v", cert)
	}
	for _, ev := range cert.Approximations {
		if !(ev.Bound > 0 && ev.Bound <= on.PHFitTolerance) {
			t.Errorf("fit %q bound %v outside (0, %v]", ev.Activity, ev.Bound, on.PHFitTolerance)
		}
		if ev.Metric == "" || ev.Surrogate == "" || ev.Phases < 1 {
			t.Errorf("fit evidence incomplete: %+v", ev)
		}
	}
	// The approximate answer is exact for the surrogate: zero-width intervals.
	for name, ci := range resOn.Points[0].Measures.Intervals { //lint:sorted
		if ci.HalfWidth != 0 {
			t.Errorf("%s: approximate analytic interval must be zero-width, got %v", name, ci.HalfWidth)
		}
	}
	// The JSON report surfaces method and evidence.
	text, err := resOn.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, `"method": "uniformization-approx"`) ||
		!strings.Contains(text, `"approximations"`) {
		t.Errorf("JSON report must label the approximate method and carry the evidence:\n%s", text)
	}
}

// TestSweepExpansionRetryKeepsModelAsBuilt pins the cascade's purity at the
// sweep level. MiniErlang with Weibull disks is refused as built; its
// Erlang repair expands, but the disks keep the expanded model refused and
// no fit tolerance is set, so the point simulates with the expansion
// evidence in its certificate. The retry rewrites a copy, so the point
// simulates the model exactly as built: its measures equal those of its
// forced-simulation twin bit for bit.
func TestSweepExpansionRetryKeepsModelAsBuilt(t *testing.T) {
	cfg := abe.MiniErlang()
	cfg.Storage.Disk.ShapeBeta = 1.5
	opts := san.Options{Mission: 1000, Replications: 4, Seed: 5, Parallelism: 2}
	res, err := Run([]Point{
		{Label: "cascade", Config: cfg, Seed: 11},
		{Label: "twin", Config: cfg, Seed: 11, ForceSimulation: true},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	solver := res.Points[0].Solver
	if solver.Method != MethodSimulation {
		t.Fatalf("point must stay refused and simulate, got %q", solver.Method)
	}
	if solver.Certificate == nil || len(solver.Certificate.Expansions) == 0 {
		t.Fatalf("certificate must carry the expansion evidence: %+v", solver.Certificate)
	}
	if !reflect.DeepEqual(res.Points[0].Measures, res.Points[1].Measures) {
		t.Errorf("measures differ from the forced-simulation twin:\n%+v\n%+v", res.Points[0].Measures, res.Points[1].Measures)
	}
}

// TestSweepSolveFailureFallsBackToSimulation pins the solve-time failure
// path: the model certifies, but the uniformization constant of the huge
// mission exceeds the solver's budget mid-point, so the point falls back to
// simulation with the solver error recorded next to the (still certified)
// certificate.
func TestSweepSolveFailureFallsBackToSimulation(t *testing.T) {
	opts := san.Options{Mission: 2e6, Replications: 2, Seed: 5}
	res, err := Run([]Point{{Config: abe.MiniExponential()}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	solver := res.Points[0].Solver
	if solver.Certificate == nil || !solver.Certificate.Certified() {
		t.Fatalf("certification must succeed before the solve fails: %+v", solver.Certificate)
	}
	if solver.Method != MethodSimulation {
		t.Fatalf("failed solve must fall back to simulation, got %q", solver.Method)
	}
	if len(solver.Reasons) != 1 || !strings.Contains(solver.Reasons[0], "uniformization constant") {
		t.Fatalf("solver error must be recorded as the reason: %v", solver.Reasons)
	}
	// The fallback actually simulated: nonzero events and a real interval.
	if res.TotalEvents == 0 {
		t.Error("simulation fallback produced no events")
	}
	ci := res.Points[0].Measures.Intervals[abe.RewardCFSAvailability]
	if ci.N != 2 {
		t.Errorf("fallback interval not a 2-replication estimate: %+v", ci)
	}
}
