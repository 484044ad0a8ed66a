package abe

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/san"
)

func TestABEConfigMatchesPaper(t *testing.T) {
	cfg := ABE()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("ABE config invalid: %v", err)
	}
	if cfg.ScratchOSSPairs != 8 || cfg.MetadataOSSPairs != 1 {
		t.Errorf("OSS pairs = %d+%d, want 8 scratch + 1 metadata (Section 3.1)", cfg.ScratchOSSPairs, cfg.MetadataOSSPairs)
	}
	if cfg.Storage.TotalDisks() != 480 {
		t.Errorf("disks = %d, want 480", cfg.Storage.TotalDisks())
	}
	if got := cfg.Storage.Disk.ShapeBeta; got != 0.7 {
		t.Errorf("Weibull shape = %v, want 0.7 (Table 4 fit)", got)
	}
	if got := cfg.Storage.Disk.MTBFHours; got != 300000 {
		t.Errorf("disk MTBF = %v, want 300000 h (Section 5.1)", got)
	}
	if cfg.Workload.ComputeNodes != 1200 {
		t.Errorf("compute nodes = %d, want 1200", cfg.Workload.ComputeNodes)
	}
	if cfg.Workload.JobsPerHour < 12 || cfg.Workload.JobsPerHour > 15 {
		t.Errorf("job rate = %v, want within Table 5's 12-15 per hour", cfg.Workload.JobsPerHour)
	}
	if cfg.TotalOSSPairs() != 9 {
		t.Errorf("TotalOSSPairs = %d, want 9", cfg.TotalOSSPairs())
	}
}

func TestPetascaleConfig(t *testing.T) {
	cfg := Petascale()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("petascale config invalid: %v", err)
	}
	if cfg.ScratchOSSPairs != 80 {
		t.Errorf("scratch OSS pairs = %d, want 80 (Table 5 upper range)", cfg.ScratchOSSPairs)
	}
	if cfg.Storage.DDNUnits != 20 {
		t.Errorf("DDN units = %d, want 20", cfg.Storage.DDNUnits)
	}
	if cfg.Storage.TotalDisks() != 4800 {
		t.Errorf("disks = %d, want 4800", cfg.Storage.TotalDisks())
	}
	if cfg.Workload.ComputeNodes != 32000 {
		t.Errorf("compute nodes = %d, want 32000", cfg.Workload.ComputeNodes)
	}
	// Metadata servers and shared fabric do not scale.
	if cfg.MetadataOSSPairs != 1 {
		t.Errorf("metadata pairs = %d, want 1", cfg.MetadataOSSPairs)
	}
	if cfg.Infrastructure != ABE().Infrastructure {
		t.Error("shared infrastructure should not scale")
	}
	// Transient error rate scales with the I/O subsystem.
	if got, want := cfg.Workload.TransientEventsPerHour, 10*ABE().Workload.TransientEventsPerHour; math.Abs(got-want) > 1e-9 {
		t.Errorf("transient rate = %v, want %v", got, want)
	}
}

func TestScaledBy(t *testing.T) {
	cfg := ABE().ScaledBy(2.5)
	if cfg.ScratchOSSPairs != 20 {
		t.Errorf("scratch pairs = %d, want 20", cfg.ScratchOSSPairs)
	}
	if cfg.Storage.DDNUnits != 5 {
		t.Errorf("DDN units = %d, want 5", cfg.Storage.DDNUnits)
	}
	if cfg.Workload.ComputeNodes != 3000 {
		t.Errorf("compute nodes = %d, want 3000", cfg.Workload.ComputeNodes)
	}
	// Non-positive factors are treated as identity.
	same := ABE().ScaledBy(0)
	if same.ScratchOSSPairs != 8 {
		t.Errorf("ScaledBy(0) changed the configuration: %+v", same)
	}
	// Tiny factors never drop below one component.
	tiny := ABE().ScaledBy(0.01)
	if tiny.ScratchOSSPairs < 1 || tiny.Storage.DDNUnits < 1 || tiny.Workload.ComputeNodes < 1 {
		t.Errorf("ScaledBy(0.01) produced empty subsystems: %+v", tiny)
	}
}

func TestConfigModifiers(t *testing.T) {
	base := ABE()
	withSpare := base.WithSpareOSS(true)
	if !withSpare.OSS.SpareOSS || base.OSS.SpareOSS {
		t.Error("WithSpareOSS did not copy-on-write")
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := map[string]func(*Config){
		"no scratch pairs":     func(c *Config) { c.ScratchOSSPairs = 0 },
		"no metadata pairs":    func(c *Config) { c.MetadataOSSPairs = 0 },
		"bad OSS hw mtbf":      func(c *Config) { c.OSS.HWMTBFHours = 0 },
		"bad OSS repair range": func(c *Config) { c.OSS.HWRepairHiHours = 1 },
		"bad propagation":      func(c *Config) { c.OSS.PropagationProb = 2 },
		"spare without delay":  func(c *Config) { c.OSS.SpareOSS = true; c.OSS.SpareActivationHours = 0 },
		"bad storage":          func(c *Config) { c.Storage.DDNUnits = 0 },
		"bad fabric":           func(c *Config) { c.Infrastructure.FabricMTBFHours = 0 },
		"bad fabric repair":    func(c *Config) { c.Infrastructure.FabricRepairHiHours = 0.1 },
		"no compute nodes":     func(c *Config) { c.Workload.ComputeNodes = 0 },
		"bad job rate":         func(c *Config) { c.Workload.JobsPerHour = 0 },
		"bad transient rate":   func(c *Config) { c.Workload.TransientEventsPerHour = 0 },
		"bad transient window": func(c *Config) { c.Workload.TransientOutageHiHours = 0.01 },
		"bad job exposure":     func(c *Config) { c.Workload.JobCFSExposure = 1.5 },
		"negative kills":       func(c *Config) { c.Workload.JobsKilledPerTransient = -1 },
		"bad sw repair range":  func(c *Config) { c.OSS.SWRepairLoHours = 0 },
		"bad sw mtbf":          func(c *Config) { c.OSS.SWMTBFHours = -1 },
		"bad transient lo":     func(c *Config) { c.Workload.TransientOutageLoHours = 0 },
	}
	for name, mutate := range mutations {
		cfg := ABE()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", name)
		}
	}
}

func TestBuildStructure(t *testing.T) {
	cfg := ABE()
	m := san.NewModel("abe")
	mp, err := Build(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("composed model invalid: %v", err)
	}
	// Expected structural landmarks.
	for _, place := range []string{
		"cfs/oss_pairs_out",
		"cfs/shared_out",
		"cfs/oss/metadata[0]/up_count",
		"cfs/oss/scratch[7]/server[1]/up",
		"cfs/oss_san_nw/up",
		"cfs/ddn_units/tiers_failed",
		"cfs/ddn_units/ddn[1]/tier[23]/disk[9]/up",
		"client/network/active",
	} {
		if m.Place(place) == nil {
			t.Errorf("missing place %q", place)
		}
	}
	// 480 disks => 480 replace activities.
	if got := len(mp.Storage.ReplaceActivities); got != 480 {
		t.Errorf("replace activities = %d, want 480", got)
	}
	// Rewards validate against the model.
	if _, err := san.Compile(m, mp.Rewards()); err != nil {
		t.Fatalf("rewards invalid: %v", err)
	}
	// Building twice into the same model must fail cleanly.
	if _, err := Build(m, cfg); err == nil {
		t.Error("duplicate build accepted")
	}
	// Invalid configuration is rejected before touching the model.
	bad := cfg
	bad.ScratchOSSPairs = 0
	if _, err := Build(san.NewModel("bad"), bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestCompositionTreeMirrorsFigure1(t *testing.T) {
	tree := CompositionTree(ABE())
	out := tree.Render()
	for _, want := range []string{
		"Join(CLUSTER)",
		"SAN(CLIENT)",
		"Join(CFS_UNIT)",
		"Replicate(OSS, n=9)",
		"SAN(OSS_SAN_NW)",
		"Replicate(DDN_UNITS, n=2)",
		"Replicate(RAID6_TIERS, n=24)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("composition tree missing %q:\n%s", want, out)
		}
	}
	if len(tree.Leaves()) != 6 {
		t.Errorf("leaves = %v, want 6 atomic submodels", tree.Leaves())
	}
}

func TestEvaluateABEAnchorsToLogAnalysis(t *testing.T) {
	// The ABE configuration must reproduce the availability observed in the
	// outage log (Table 1: 0.97-0.98) and the paper's other ABE-scale
	// observations: storage availability ~1, 0-2 disk replacements per week,
	// CU slightly below CFS availability, and transient job failures several
	// times more common than CFS-caused ones (Table 3).
	measures, err := Evaluate(ABE(), san.Options{Mission: 8760, Replications: 40, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if measures.CFSAvailability < 0.96 || measures.CFSAvailability > 0.985 {
		t.Errorf("ABE CFS availability = %v, want within the observed 0.97-0.98 band", measures.CFSAvailability)
	}
	if measures.StorageAvailability < 0.999 {
		t.Errorf("ABE storage availability = %v, want ~1", measures.StorageAvailability)
	}
	if measures.DiskReplacementsPerWeek < 0.1 || measures.DiskReplacementsPerWeek > 2 {
		t.Errorf("disk replacements per week = %v, want within 0-2", measures.DiskReplacementsPerWeek)
	}
	if !(measures.ClusterUtility < measures.CFSAvailability) {
		t.Errorf("CU %v should be below CFS availability %v", measures.ClusterUtility, measures.CFSAvailability)
	}
	if measures.ClusterUtility < 0.94 || measures.ClusterUtility > 0.99 {
		t.Errorf("ABE CU = %v, want ~0.968 (Table 3)", measures.ClusterUtility)
	}
	ratio := measures.LostJobsTransientPerYear / math.Max(measures.LostJobsCFSPerYear, 1)
	if ratio < 3 {
		t.Errorf("transient/CFS job-failure ratio = %v, want >= 3 (Table 3 shows ~5x)", ratio)
	}
	if len(measures.Intervals) == 0 {
		t.Error("no confidence intervals reported")
	}
	ci, ok := measures.Intervals[RewardCFSAvailability]
	if !ok || ci.HalfWidth <= 0 {
		t.Errorf("CFS availability interval missing or degenerate: %+v", ci)
	}
	if measures.String() == "" {
		t.Error("String() empty")
	}
}

func TestEvaluateScalingTrendsMatchFigure4(t *testing.T) {
	// Figure 4's qualitative content: CFS availability drops as the system
	// scales to petascale, storage availability stays ~1, CU drops further,
	// and a standby-spare OSS recovers a few percent of availability.
	opts := san.Options{Mission: 8760, Replications: 30, Seed: 23}
	abeMeasures, err := Evaluate(ABE(), opts)
	if err != nil {
		t.Fatal(err)
	}
	peta, err := Evaluate(Petascale(), opts)
	if err != nil {
		t.Fatal(err)
	}
	petaSpare, err := Evaluate(Petascale().WithSpareOSS(true), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !(peta.CFSAvailability < abeMeasures.CFSAvailability-0.02) {
		t.Errorf("petascale CFS availability %v should be clearly below ABE's %v", peta.CFSAvailability, abeMeasures.CFSAvailability)
	}
	if peta.CFSAvailability < 0.85 || peta.CFSAvailability > 0.95 {
		t.Errorf("petascale CFS availability = %v, want ~0.91 (Figure 4)", peta.CFSAvailability)
	}
	if peta.StorageAvailability < 0.995 {
		t.Errorf("petascale storage availability = %v, want ~1 for the ABE disk configuration", peta.StorageAvailability)
	}
	if !(petaSpare.CFSAvailability > peta.CFSAvailability+0.01) {
		t.Errorf("spare OSS should improve availability by a few percent: %v vs %v", petaSpare.CFSAvailability, peta.CFSAvailability)
	}
	if !(peta.ClusterUtility < abeMeasures.ClusterUtility) {
		t.Errorf("CU should decrease with scale: %v vs %v", peta.ClusterUtility, abeMeasures.ClusterUtility)
	}
	if !(peta.DiskReplacementsPerWeek > 5*abeMeasures.DiskReplacementsPerWeek) {
		t.Errorf("disk replacements should grow ~10x with 10x disks: %v vs %v", peta.DiskReplacementsPerWeek, abeMeasures.DiskReplacementsPerWeek)
	}
}

// Property: for any moderate scale factor, the derived measures stay within
// their mathematical bounds.
func TestQuickMeasureBounds(t *testing.T) {
	f := func(factorSeed uint8, seed uint64) bool {
		factor := 1 + float64(factorSeed%8)
		cfg := ABE().ScaledBy(factor)
		// Keep the property cheap: shrink the mission and replication count.
		m, err := Evaluate(cfg, san.Options{Mission: 1000, Replications: 4, Seed: seed, Parallelism: 2})
		if err != nil {
			return false
		}
		inUnit := func(x float64) bool { return x >= 0 && x <= 1 }
		return inUnit(m.StorageAvailability) && inUnit(m.CFSAvailability) && inUnit(m.ClusterUtility) &&
			m.DiskReplacementsPerWeek >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func newStream() *rng.Stream { return rng.NewStream(99, "abe-test") }

func TestIntervalUnitsMatchHeadlineMeasures(t *testing.T) {
	// The disk-replacement and lost-job headline fields are rescaled to
	// per-week/per-year units; their confidence intervals must be published
	// in the same units (the interval center equals the headline value).
	m, err := Evaluate(ABE(), san.Options{Mission: 4380, Replications: 8, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		reward   string
		headline float64
	}{
		{RewardDiskReplacements, m.DiskReplacementsPerWeek},
		{RewardLostJobsCFS, m.LostJobsCFSPerYear},
		{RewardLostJobsTransient, m.LostJobsTransientPerYear},
		{RewardStorageAvailability, m.StorageAvailability},
		{RewardCFSAvailability, m.CFSAvailability},
	}
	for _, c := range checks {
		ci, ok := m.Intervals[c.reward]
		if !ok {
			t.Errorf("interval for %q missing", c.reward)
			continue
		}
		if ci.Mean != c.headline {
			t.Errorf("%q interval center %v != headline %v (interval left in mission-total units?)",
				c.reward, ci.Mean, c.headline)
		}
	}
	// The rescaled interval must still be a genuine interval.
	if ci := m.Intervals[RewardDiskReplacements]; !(ci.HalfWidth > 0) {
		t.Errorf("disk-replacement interval degenerate: %+v", ci)
	}
}

// syntheticStudy builds a study whose required rewards have the given
// constant per-replication values, for exercising MeasuresFromStudy edge
// cases without a simulation.
func syntheticStudy(t *testing.T, mission float64, values map[string]float64) *san.StudyResult {
	t.Helper()
	rewards := make([]san.RewardVariable, 0, len(values))
	for name := range values {
		rewards = append(rewards, san.RewardVariable{Name: name})
	}
	opts := san.Options{Mission: mission, Replications: 2, Confidence: 0.95, Seed: 1, Parallelism: 1}
	study := san.NewStudyResult(rewards, opts)
	for rep := 0; rep < 2; rep++ {
		res := san.Result{Rewards: make(map[string]float64, len(values)), FinalTime: mission}
		for name, v := range values {
			// Offset the second replication slightly so intervals are finite.
			res.Rewards[name] = v * (1 + 0.01*float64(rep))
		}
		study.Add(res)
	}
	return study
}

func requiredRewardValues() map[string]float64 {
	return map[string]float64{
		RewardStorageAvailability: 0.999,
		RewardCFSAvailability:     0.97,
		RewardDiskReplacements:    10,
		RewardLostJobsCFS:         100,
		RewardLostJobsTransient:   300,
	}
}

func TestMeasuresFromStudyMissingReward(t *testing.T) {
	values := requiredRewardValues()
	delete(values, RewardCFSAvailability)
	study := syntheticStudy(t, 8760, values)
	_, err := MeasuresFromStudy(ABE(), study)
	if !errors.Is(err, ErrMissingReward) {
		t.Fatalf("missing reward error = %v, want ErrMissingReward", err)
	}
	if err != nil && !strings.Contains(err.Error(), RewardCFSAvailability) {
		t.Errorf("error %q does not name the missing reward", err)
	}
	// A complete study succeeds and never returns NaN measures.
	full, err := MeasuresFromStudy(ABE(), syntheticStudy(t, 8760, requiredRewardValues()))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(full.CFSAvailability) || math.IsNaN(full.ClusterUtility) {
		t.Errorf("NaN measures from a complete study: %+v", full)
	}
}

func TestClusterUtilityClamped(t *testing.T) {
	// Negative accumulated job losses (an estimator pathology) would push the
	// raw CU ratio above 1; it must be clamped to the unit interval.
	over := requiredRewardValues()
	over[RewardLostJobsCFS] = -1e6
	over[RewardLostJobsTransient] = -1e6
	m, err := MeasuresFromStudy(ABE(), syntheticStudy(t, 8760, over))
	if err != nil {
		t.Fatal(err)
	}
	if m.ClusterUtility != 1 {
		t.Errorf("CU = %v, want clamped to 1", m.ClusterUtility)
	}
	// Catastrophic losses push it below 0; clamped at 0.
	under := requiredRewardValues()
	under[RewardLostJobsCFS] = 1e9
	m, err = MeasuresFromStudy(ABE(), syntheticStudy(t, 8760, under))
	if err != nil {
		t.Fatal(err)
	}
	if m.ClusterUtility != 0 {
		t.Errorf("CU = %v, want clamped to 0", m.ClusterUtility)
	}
}

// TestLumpedBuildMatchesFlat pins the tentpole equivalence on the full
// composed model: the exponential-forms configuration built flat and lumped
// must agree on every reward mean within pooled confidence intervals, while
// the lumped model is drastically smaller and fires materially fewer events
// (the transient window is lumped away, everything else keeps its exact
// jump statistics).
func TestLumpedBuildMatchesFlat(t *testing.T) {
	cfg := ABE().WithExponentialForms()
	opts := san.Options{Mission: 8760, Replications: 24, Seed: 29}

	run := func(lumped bool) (*san.StudyResult, san.ModelStats) {
		model := san.NewModel("equiv")
		mp, err := Build(model, cfg.WithLumping(lumped))
		if err != nil {
			t.Fatal(err)
		}
		study, err := san.RunReplications(model, mp.Rewards(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return study, model.Stats()
	}
	flat, flatStats := run(false)
	lumped, lumpedStats := run(true)

	// The lumped composed model is orders of magnitude smaller: counted
	// populations replace per-component expansion everywhere.
	if lumpedStats.Activities*10 > flatStats.Activities || lumpedStats.Places*10 > flatStats.Places {
		t.Errorf("lumped model not materially smaller: %+v vs flat %+v", lumpedStats, flatStats)
	}
	// And it fires materially fewer events for the same measures.
	if !(lumped.TotalEvents < flat.TotalEvents*9/10) {
		t.Errorf("lumped events %d not materially below flat %d", lumped.TotalEvents, flat.TotalEvents)
	}
	for _, reward := range []string{
		RewardStorageAvailability, RewardCFSAvailability, RewardDiskReplacements,
		RewardLostJobsCFS, RewardLostJobsTransient, RewardOSSPairsDown,
	} {
		fci, err := flat.Interval(reward)
		if err != nil {
			t.Fatal(err)
		}
		lci, err := lumped.Interval(reward)
		if err != nil {
			t.Fatal(err)
		}
		pooled := math.Sqrt(fci.HalfWidth*fci.HalfWidth + lci.HalfWidth*lci.HalfWidth)
		if math.Abs(fci.Mean-lci.Mean) > 3*pooled {
			t.Errorf("%s: flat %v vs lumped %v beyond pooled interval %v", reward, fci.Mean, lci.Mean, pooled)
		}
	}
}

func TestWithExponentialFormsAndLumping(t *testing.T) {
	base := ABE()
	exp := base.WithExponentialForms()
	if base.OSS.ExponentialRepairs || base.Lumped {
		t.Error("modifiers mutated the base config")
	}
	if !exp.OSS.ExponentialRepairs || exp.Storage.Disk.ShapeBeta != 1 ||
		!exp.Storage.Disk.ExponentialReplace || !exp.Storage.Controller.ExponentialRepair {
		t.Errorf("WithExponentialForms incomplete: %+v", exp)
	}
	if err := exp.Validate(); err != nil {
		t.Fatal(err)
	}
	lumped := exp.WithLumping(true)
	if !lumped.Lumped || exp.Lumped {
		t.Error("WithLumping did not copy-on-write")
	}
	if !lumped.LumpsOSSPairs() {
		t.Error("exponential-forms config should lump OSS pairs")
	}
	// The spare's deterministic activation forces flat pairs even when lumped.
	if lumped.WithSpareOSS(true).LumpsOSSPairs() {
		t.Error("spared OSS pairs must stay flat")
	}
	// The default (uniform-repair, Weibull-disk) config lumps nothing even
	// with the opt-in: representation never changes the distributions.
	plainLumped := base.WithLumping(true)
	if plainLumped.LumpsOSSPairs() || plainLumped.storageConfig().LumpsTiers() || plainLumped.storageConfig().LumpsControllers() {
		t.Error("non-exponential families must keep their flat expansion")
	}
}

func TestModelStats(t *testing.T) {
	flat, err := ABE().ModelStats()
	if err != nil {
		t.Fatal(err)
	}
	if flat.Lumped || flat.Places != flat.FlatPlaces || flat.Activities != flat.FlatActivities {
		t.Errorf("flat config stats inconsistent: %+v", flat)
	}
	if flat.Places == 0 || flat.Activities == 0 {
		t.Errorf("empty stats: %+v", flat)
	}
	lumped, err := ABE().WithExponentialForms().WithLumping(true).ModelStats()
	if err != nil {
		t.Fatal(err)
	}
	if !lumped.Lumped {
		t.Errorf("lumped flag lost: %+v", lumped)
	}
	if lumped.Places >= lumped.FlatPlaces || lumped.Activities >= lumped.FlatActivities {
		t.Errorf("lumped stats not smaller than flat expansion: %+v", lumped)
	}
	// The flat expansion of the exponential-forms config matches the flat
	// default in size (distribution swaps do not change the structure).
	if lumped.FlatPlaces != flat.FlatPlaces || lumped.FlatActivities != flat.FlatActivities {
		t.Errorf("flat expansion sizes differ: %+v vs %+v", lumped, flat)
	}
	// A direct storage-level opt-in (Config.Lumped left false) still counts
	// as lumped, and its flat comparison clears the storage flag too.
	storageOnly := ABE()
	storageOnly.Storage.Disk.ShapeBeta = 1
	storageOnly.Storage.Disk.ExponentialReplace = true
	storageOnly.Storage.Lumped = true
	if !storageOnly.LumpsAnything() {
		t.Error("storage-level lumping opt-in not detected")
	}
	if storageOnly.FlatConfig().LumpsAnything() {
		t.Error("FlatConfig left a lumping opt-in set")
	}
	so, err := storageOnly.ModelStats()
	if err != nil {
		t.Fatal(err)
	}
	if !so.Lumped || so.Places >= so.FlatPlaces || so.Activities >= so.FlatActivities {
		t.Errorf("storage-only lumped stats inconsistent: %+v", so)
	}
}

func TestCompositionTreeLumpedAnnotations(t *testing.T) {
	plain := CompositionTree(ABE()).Render()
	if strings.Contains(plain, "[lumped]") {
		t.Errorf("flat config tree claims lumping:\n%s", plain)
	}
	lumped := CompositionTree(ABE().WithExponentialForms().WithLumping(true)).Render()
	for _, want := range []string{
		"Replicate(OSS, n=9) [lumped]",
		"SAN(RAID_CONTROLLER) [lumped]",
		"Replicate(RAID6_TIERS, n=24) [lumped]",
	} {
		if !strings.Contains(lumped, want) {
			t.Errorf("lumped tree missing %q:\n%s", want, lumped)
		}
	}
	// Weibull disks stay individual even under the lumping opt-in.
	partial := CompositionTree(ABE().WithLumping(true)).Render()
	if strings.Contains(partial, "RAID6_TIERS, n=24) [lumped]") {
		t.Errorf("Weibull tiers annotated as lumped:\n%s", partial)
	}
}

// TestMiniErlangConfig pins the shipped previously-refused configuration:
// it validates, builds, and carries the Erlang fabric-repair knob; the
// degenerate stage counts are rejected at validation.
func TestMiniErlangConfig(t *testing.T) {
	cfg := MiniErlang()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("MiniErlang invalid: %v", err)
	}
	if cfg.Infrastructure.ErlangRepairStages != 3 {
		t.Fatalf("ErlangRepairStages = %d, want 3", cfg.Infrastructure.ErlangRepairStages)
	}
	m := san.NewModel(cfg.Name)
	mp, err := Build(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := san.Compile(m, mp.Rewards()); err != nil {
		t.Fatal(err)
	}

	bad := MiniErlang()
	bad.Infrastructure.ErlangRepairStages = 1
	if err := bad.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("single-stage Erlang must be rejected with ErrBadConfig, got %v", err)
	}
	bad.Infrastructure.ErlangRepairStages = -1
	if err := bad.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative stage count must be rejected with ErrBadConfig, got %v", err)
	}
}
