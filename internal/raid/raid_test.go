package raid

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/san"
	"repro/internal/stats"
)

func TestTierGeometry(t *testing.T) {
	g := TierGeometry{Data: 8, Parity: 2}
	if g.Disks() != 10 {
		t.Errorf("Disks = %d, want 10", g.Disks())
	}
	if g.String() != "8+2" {
		t.Errorf("String = %q", g.String())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
	if err := (TierGeometry{Data: 0, Parity: 2}).Validate(); err == nil {
		t.Error("zero data disks accepted")
	}
	if err := (TierGeometry{Data: 8, Parity: -1}).Validate(); err == nil {
		t.Error("negative parity accepted")
	}
}

func TestDiskConfig(t *testing.T) {
	d := DefaultDisk()
	if err := d.Validate(); err != nil {
		t.Fatalf("default disk invalid: %v", err)
	}
	if math.Abs(d.AFR()-0.0292) > 0.001 {
		t.Errorf("default AFR = %v, want ~0.0292", d.AFR())
	}
	d.MTBFHours = 0
	if err := d.Validate(); err == nil {
		t.Error("zero MTBF accepted")
	}
}

func TestControllerConfig(t *testing.T) {
	c := DefaultController()
	if err := c.Validate(); err != nil {
		t.Fatalf("default controller invalid: %v", err)
	}
	c.RepairHiHours = c.RepairLoHours - 1
	if err := c.Validate(); err == nil {
		t.Error("inverted repair range accepted")
	}
}

func TestABEStorageConfig(t *testing.T) {
	cfg := ABEStorage()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("ABE config invalid: %v", err)
	}
	if cfg.TotalDisks() != 480 {
		t.Errorf("TotalDisks = %d, want 480 (paper Section 3.2)", cfg.TotalDisks())
	}
	if cfg.TotalTiers() != 48 {
		t.Errorf("TotalTiers = %d, want 48", cfg.TotalTiers())
	}
	if math.Abs(cfg.UsableTB()-96) > 0.01 {
		t.Errorf("UsableTB = %v, want 96", cfg.UsableTB())
	}
}

func TestStorageConfigValidate(t *testing.T) {
	cfg := ABEStorage()
	cfg.DDNUnits = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero DDN units accepted")
	}
	cfg = ABEStorage()
	cfg.Geometry.Data = 0
	if err := cfg.Validate(); err == nil {
		t.Error("bad geometry accepted")
	}
	cfg = ABEStorage()
	cfg.Disk.ReplaceHours = 0
	if err := cfg.Validate(); err == nil {
		t.Error("bad disk accepted")
	}
	cfg = ABEStorage()
	cfg.Controller.MTBFHours = 0
	if err := cfg.Validate(); err == nil {
		t.Error("bad controller accepted")
	}
}

func TestScaledToDisks(t *testing.T) {
	cfg := ABEStorage()
	scaled, err := cfg.ScaledToDisks(4800)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.DDNUnits != 20 {
		t.Errorf("DDNUnits = %d, want 20", scaled.DDNUnits)
	}
	if scaled.TotalDisks() != 4800 {
		t.Errorf("TotalDisks = %d, want 4800", scaled.TotalDisks())
	}
	// Rounds up when the target is not a multiple of a DDN unit.
	scaled, err = cfg.ScaledToDisks(500)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.DDNUnits != 3 {
		t.Errorf("DDNUnits = %d, want 3", scaled.DDNUnits)
	}
	if _, err := cfg.ScaledToDisks(0); err == nil {
		t.Error("zero disks accepted")
	}
}

func TestScaledToUsableTB(t *testing.T) {
	cfg := ABEStorage()
	// Same capacity per disk (0 years of growth): 12x the capacity needs 12x
	// the DDN units.
	scaled, err := cfg.ScaledToUsableTB(96*12, 0.33, 0)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.DDNUnits != 24 {
		t.Errorf("DDNUnits = %d, want 24", scaled.DDNUnits)
	}
	// With 4 years of 33% capacity growth, 12 PB needs far fewer units than
	// it would at 250 GB/disk.
	petascale, err := cfg.ScaledToUsableTB(12000, 0.33, 4)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := cfg.ScaledToUsableTB(12000, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if petascale.DDNUnits >= naive.DDNUnits {
		t.Errorf("capacity growth should reduce the units needed: %d vs %d", petascale.DDNUnits, naive.DDNUnits)
	}
	if petascale.UsableTB() < 12000 {
		t.Errorf("scaled capacity %v TB < target", petascale.UsableTB())
	}
	if _, err := cfg.ScaledToUsableTB(-1, 0.33, 4); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestBuildStorageStructure(t *testing.T) {
	m := san.NewModel("storage-test")
	cfg := StorageConfig{
		DDNUnits:    2,
		TiersPerDDN: 3,
		Geometry:    TierGeometry{Data: 8, Parity: 2},
		Disk:        DefaultDisk(),
		Controller:  DefaultController(),
	}
	sp, err := BuildStorage(m, "storage", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("built model invalid: %v", err)
	}
	// 2 DDN x 3 tiers x 10 disks = 60 disks, one replace activity each.
	if len(sp.ReplaceActivities) != 60 {
		t.Errorf("replace activities = %d, want 60", len(sp.ReplaceActivities))
	}
	// Places: 3 global counters + per DDN (1 pairDown + 2x2 controller) +
	// per tier (1 + 10x2 disks).
	wantPlaces := 3 + 2*(1+4) + 6*(1+20)
	if m.NumPlaces() != wantPlaces {
		t.Errorf("NumPlaces = %d, want %d", m.NumPlaces(), wantPlaces)
	}
	// Activities: per controller 2 (fail/repair) x 2 x 2 DDN = 8, per disk 2 x 60 = 120.
	if m.NumActivities() != 128 {
		t.Errorf("NumActivities = %d, want 128", m.NumActivities())
	}
	if m.Place("storage/ddn[1]/tier[2]/disk[9]/up") == nil {
		t.Error("expected hierarchical place names")
	}
	for _, name := range sp.ReplaceActivities {
		if !strings.Contains(name, "replace") {
			t.Errorf("unexpected replace activity name %q", name)
		}
	}
	// Rebuilding under the same prefix must fail (duplicate names).
	if _, err := BuildStorage(m, "storage", cfg); err == nil {
		t.Error("duplicate prefix accepted")
	}
	// Invalid config rejected.
	bad := cfg
	bad.DDNUnits = 0
	if _, err := BuildStorage(san.NewModel("x"), "s", bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestStorageSimulationHighReliability(t *testing.T) {
	// With ABE-like parameters at small scale the storage availability must
	// be essentially 1 and the replacement count must match the analytic
	// renewal rate.
	m := san.NewModel("abe-small")
	cfg := StorageConfig{
		DDNUnits:    1,
		TiersPerDDN: 4,
		Geometry:    TierGeometry{Data: 8, Parity: 2},
		Disk:        DiskConfig{ShapeBeta: 1.0, MTBFHours: 50000, ReplaceHours: 4, CapacityGB: 250},
		Controller:  DefaultController(),
	}
	sp, err := BuildStorage(m, "storage", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rewards := []san.RewardVariable{
		sp.AvailabilityReward("storage_availability"),
		sp.ReplacementCountReward("replacements"),
	}
	res, err := san.RunReplications(m, rewards, san.Options{Mission: 8760, Replications: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	avail := res.Mean("storage_availability")
	if avail < 0.999 {
		t.Errorf("storage availability = %v, want ~1 at this scale", avail)
	}
	// Expected replacements per year: 40 disks * 8760/50004 ≈ 7.0.
	wantPerYear := float64(cfg.TotalDisks()) * 8760 / (cfg.Disk.MTBFHours + cfg.Disk.ReplaceHours)
	got := res.Mean("replacements")
	if math.Abs(got-wantPerYear)/wantPerYear > 0.25 {
		t.Errorf("replacements per year = %v, want ~%v", got, wantPerYear)
	}
}

func TestStorageSimulationTierFailureInjection(t *testing.T) {
	// Failure injection: disks that live a deterministic 10 hours and take
	// 100 hours to replace guarantee that a (1+1) tier loses redundancy, so
	// the tier must be observed failed and availability must drop well below
	// 1.
	m := san.NewModel("inject")
	sp := &StoragePlaces{}
	var err error
	sp.TiersFailed, err = m.AddPlaceErr("tiers_failed", 0)
	if err != nil {
		t.Fatal(err)
	}
	sp.DDNFailed, _ = m.AddPlaceErr("ddn_failed", 0)
	sp.DisksDown, _ = m.AddPlaceErr("disks_down", 0)
	life, _ := dist.NewDeterministic(10)
	replace, _ := dist.NewDeterministic(100)
	if err := buildTier(m, "tier", TierGeometry{Data: 1, Parity: 1}, life, replace, sp); err != nil {
		t.Fatal(err)
	}
	rewards := []san.RewardVariable{
		sp.AvailabilityReward("avail"),
		san.CompletionCount("tier_failures", findActivities(m, "fail")...),
	}
	cm, err := san.Compile(m, rewards)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cm.NewSimulator(newTestStream())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	// Both disks fail at t=10 and stay down until t=110: at least 100 of the
	// 200 hours are unavailable.
	if got := res.Rewards["avail"]; got > 0.55 {
		t.Errorf("availability = %v, want <= 0.55 under forced double failure", got)
	}
	if got := res.Rewards["tier_failures"]; got < 2 {
		t.Errorf("disk failures = %v, want >= 2", got)
	}
}

func TestControllerDoubleFaultCausesDDNFailure(t *testing.T) {
	// Failure injection for the controller pair: both controllers fail
	// deterministically and take long to repair, so the DDN must be counted
	// as failed for part of the mission.
	m := san.NewModel("ctrl-inject")
	sp := &StoragePlaces{}
	sp.TiersFailed, _ = m.AddPlaceErr("tiers_failed", 0)
	sp.DDNFailed, _ = m.AddPlaceErr("ddn_failed", 0)
	sp.DisksDown, _ = m.AddPlaceErr("disks_down", 0)
	life, _ := dist.NewDeterministic(10)
	repair, _ := dist.NewDeterministic(50)
	if err := buildControllerPair(m, "ddn", life, repair, sp); err != nil {
		t.Fatal(err)
	}
	cm, err := san.Compile(m, []san.RewardVariable{sp.AvailabilityReward("avail")})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cm.NewSimulator(newTestStream())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	// Both fail at t=10, repaired at t=60: 50 of 60 hours unavailable.
	if got := res.Rewards["avail"]; math.Abs(got-10.0/60.0) > 1e-9 {
		t.Errorf("availability = %v, want %v", got, 10.0/60.0)
	}
}

func TestTierUnavailabilityExponential(t *testing.T) {
	// RAID0 (no parity) single-disk tier: unavailability = MTTR/(MTBF+MTTR).
	u, err := TierUnavailabilityExponential(TierGeometry{Data: 1, Parity: 0}, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := 10.0 / 1010.0
	if math.Abs(u-want) > 1e-12 {
		t.Errorf("single-disk unavailability = %v, want %v", u, want)
	}
	// More parity is strictly better.
	u2, _ := TierUnavailabilityExponential(TierGeometry{Data: 8, Parity: 2}, 100000, 4)
	u3, _ := TierUnavailabilityExponential(TierGeometry{Data: 8, Parity: 3}, 100000, 4)
	if !(u3 < u2) {
		t.Errorf("8+3 unavailability %v should be < 8+2 %v", u3, u2)
	}
	if u2 <= 0 || u2 >= 1 {
		t.Errorf("unavailability out of range: %v", u2)
	}
	if _, err := TierUnavailabilityExponential(TierGeometry{Data: 0}, 100, 1); err == nil {
		t.Error("bad geometry accepted")
	}
	if _, err := TierUnavailabilityExponential(TierGeometry{Data: 1}, 0, 1); err == nil {
		t.Error("zero MTBF accepted")
	}
}

func TestStorageUnavailabilityExponentialMonotoneInScale(t *testing.T) {
	small := ABEStorage()
	small.Disk.ShapeBeta = 1.0
	big, err := small.ScaledToDisks(4800)
	if err != nil {
		t.Fatal(err)
	}
	uSmall, err := StorageUnavailabilityExponential(small, small.Disk.ReplaceHours)
	if err != nil {
		t.Fatal(err)
	}
	uBig, err := StorageUnavailabilityExponential(big, big.Disk.ReplaceHours)
	if err != nil {
		t.Fatal(err)
	}
	if !(uBig > uSmall) {
		t.Errorf("unavailability should grow with scale: %v vs %v", uSmall, uBig)
	}
	bad := small
	bad.DDNUnits = 0
	if _, err := StorageUnavailabilityExponential(bad, 4); err == nil {
		t.Error("bad config accepted")
	}
}

func TestExpectedReplacementsPerWeek(t *testing.T) {
	cfg := ABEStorage()
	perWeek, err := ExpectedReplacementsPerWeek(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper observes 0-2 replacements per week on ABE; the analytic value
	// for 480 disks at 300,000 h MTBF is ~0.27/week.
	if perWeek < 0.1 || perWeek > 2 {
		t.Errorf("ABE replacements per week = %v, want within the paper's 0-2 band", perWeek)
	}
	scaled, _ := cfg.ScaledToDisks(4800)
	scaledPerWeek, _ := ExpectedReplacementsPerWeek(scaled)
	if math.Abs(scaledPerWeek-10*perWeek)/scaledPerWeek > 0.01 {
		t.Errorf("10x disks should give 10x replacements: %v vs %v", scaledPerWeek, perWeek)
	}
	bad := cfg
	bad.Disk.MTBFHours = -1
	if _, err := ExpectedReplacementsPerWeek(bad); err == nil {
		t.Error("bad config accepted")
	}
}

// Property: analytic tier unavailability is within (0,1), decreases with
// added parity, and increases with MTTR.
func TestQuickTierUnavailabilityProperties(t *testing.T) {
	f := func(dataSeed, paritySeed uint8, mtbfSeed, mttrSeed uint16) bool {
		g := TierGeometry{Data: int(dataSeed%12) + 1, Parity: int(paritySeed % 4)}
		mtbf := 1000 + float64(mtbfSeed)
		mttr := 1 + float64(mttrSeed%200)
		u, err := TierUnavailabilityExponential(g, mtbf, mttr)
		if err != nil {
			return false
		}
		if u <= 0 || u >= 1 {
			return false
		}
		better, err := TierUnavailabilityExponential(TierGeometry{Data: g.Data, Parity: g.Parity + 1}, mtbf, mttr)
		if err != nil || better >= u {
			return false
		}
		slower, err := TierUnavailabilityExponential(g, mtbf, mttr*2)
		if err != nil || slower <= u {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// findActivities returns the names of activities containing substr.
func findActivities(m *san.Model, substr string) []string {
	var out []string
	for _, a := range m.Activities() {
		if strings.Contains(a.Name(), substr) {
			out = append(out, a.Name())
		}
	}
	return out
}

// newTestStream returns a deterministic stream for single-run simulations in
// this package's tests.
func newTestStream() *rng.Stream {
	return rng.NewStream(123, "raid-test")
}

// lumpableStorage returns a fully exponential storage configuration in
// lumped form: shape-1 disks with exponential replacement and exponential
// controller repairs.
func lumpableStorage(ddnUnits, tiersPerDDN int, g TierGeometry, mtbf, mttr float64) StorageConfig {
	return StorageConfig{
		DDNUnits:    ddnUnits,
		TiersPerDDN: tiersPerDDN,
		Geometry:    g,
		Disk: DiskConfig{
			ShapeBeta: 1, MTBFHours: mtbf, ReplaceHours: mttr,
			ExponentialReplace: true, CapacityGB: 250,
		},
		Controller: ControllerConfig{
			MTBFHours: 1e9, RepairLoHours: 12, RepairHiHours: 36,
			ExponentialRepair: true,
		},
		Lumped: true,
	}
}

func TestLumpingPredicates(t *testing.T) {
	cfg := lumpableStorage(2, 3, TierGeometry{Data: 2, Parity: 1}, 1000, 48)
	if !cfg.LumpsTiers() || !cfg.LumpsControllers() {
		t.Errorf("fully exponential config should lump: tiers=%v controllers=%v", cfg.LumpsTiers(), cfg.LumpsControllers())
	}
	weibull := cfg
	weibull.Disk.ShapeBeta = 0.7
	if weibull.LumpsTiers() {
		t.Error("Weibull-aged disks must stay flat")
	}
	detReplace := cfg
	detReplace.Disk.ExponentialReplace = false
	if detReplace.LumpsTiers() {
		t.Error("deterministic replacement must stay flat")
	}
	crews := cfg
	crews.RepairCrews = 1
	if crews.LumpsTiers() {
		t.Error("crew-capped replacement must stay flat (the crew couples tiers)")
	}
	uniformCtrl := cfg
	uniformCtrl.Controller.ExponentialRepair = false
	if uniformCtrl.LumpsControllers() {
		t.Error("uniform controller repair must stay flat")
	}
	off := cfg
	off.Lumped = false
	if off.LumpsTiers() || off.LumpsControllers() {
		t.Error("lumping without the opt-in")
	}
	bad := cfg
	bad.RepairCrews = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative repair crews accepted")
	}
}

// TestLumpedStorageMatchesClosedForm validates the lumped tier population
// against the exact steady-state answer: for exponential lifetimes and
// replacements the per-tier birth-death chain has the closed-form
// unavailability of TierUnavailabilityExponential, and independent tiers
// compose as StorageUnavailabilityExponential.
func TestLumpedStorageMatchesClosedForm(t *testing.T) {
	cfg := lumpableStorage(1, 4, TierGeometry{Data: 2, Parity: 1}, 1000, 48)
	want, err := StorageUnavailabilityExponential(cfg, cfg.Disk.ReplaceHours)
	if err != nil {
		t.Fatal(err)
	}

	m := san.NewModel("lumped-closed-form")
	sp, err := BuildStorage(m, "storage", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sp.LumpedTiers == nil || sp.LumpedControllers == nil {
		t.Fatal("expected lumped tiers and controllers")
	}
	res, err := san.RunReplications(m, []san.RewardVariable{
		sp.AvailabilityReward("avail"),
	}, san.Options{Mission: 50000, Replications: 32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	got := 1 - res.Mean("avail")
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("lumped storage unavailability = %v, closed form says %v", got, want)
	}
}

// TestLumpedStorageMatchesFlat pins the lumping equivalence on the storage
// submodel: the same fully exponential configuration built flat and lumped
// agrees on availability and replacement counts within pooled confidence
// intervals, with a model-size reduction that grows with scale.
func TestLumpedStorageMatchesFlat(t *testing.T) {
	lumpedCfg := lumpableStorage(2, 4, TierGeometry{Data: 4, Parity: 1}, 2000, 24)
	flatCfg := lumpedCfg
	flatCfg.Lumped = false
	opts := san.Options{Mission: 8760, Replications: 32, Seed: 11}

	run := func(cfg StorageConfig) ([2]stats.Interval, *san.Model) {
		m := san.NewModel("storage-equiv")
		sp, err := BuildStorage(m, "storage", cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := san.RunReplications(m, []san.RewardVariable{
			sp.AvailabilityReward("avail"),
			sp.ReplacementCountReward("replacements"),
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		availCI, err := res.Interval("avail")
		if err != nil {
			t.Fatal(err)
		}
		replCI, err := res.Interval("replacements")
		if err != nil {
			t.Fatal(err)
		}
		return [2]stats.Interval{availCI, replCI}, m
	}
	flat, flatModel := run(flatCfg)
	lumped, lumpedModel := run(lumpedCfg)
	if fs, ls := flatModel.Stats(), lumpedModel.Stats(); ls.Places >= fs.Places || ls.Activities >= fs.Activities {
		t.Errorf("lumped storage not smaller: %+v vs %+v", ls, fs)
	}
	for i, name := range []string{"avail", "replacements"} {
		pooled := math.Sqrt(flat[i].HalfWidth*flat[i].HalfWidth + lumped[i].HalfWidth*lumped[i].HalfWidth)
		if math.Abs(flat[i].Mean-lumped[i].Mean) > 3*pooled {
			t.Errorf("%s: flat %v vs lumped %v beyond pooled interval %v", name, flat[i].Mean, lumped[i].Mean, pooled)
		}
	}
	// The analytic renewal rate anchors the replacement count in absolute
	// terms (mean lifetime + mean replacement is distribution-free).
	wantPerYear := float64(lumpedCfg.TotalDisks()) * 8760 / (lumpedCfg.Disk.MTBFHours + lumpedCfg.Disk.ReplaceHours)
	if math.Abs(lumped[1].Mean-wantPerYear)/wantPerYear > 0.2 {
		t.Errorf("lumped replacements per year = %v, want ~%v", lumped[1].Mean, wantPerYear)
	}
}

// TestRepairCrewsCapBacklog exercises the shared-repair-crew knob: under
// overload a single crew builds a strictly larger replacement backlog than
// unlimited crews, and the crew place never over-allocates.
func TestRepairCrewsCapBacklog(t *testing.T) {
	base := StorageConfig{
		DDNUnits:    2,
		TiersPerDDN: 1,
		Geometry:    TierGeometry{Data: 2, Parity: 1},
		Disk:        DiskConfig{ShapeBeta: 1, MTBFHours: 100, ReplaceHours: 25, CapacityGB: 250},
		Controller:  ControllerConfig{MTBFHours: 1e9, RepairLoHours: 1, RepairHiHours: 2},
	}
	opts := san.Options{Mission: 4000, Replications: 24, Seed: 9}

	backlog := func(crews int) (float64, float64) {
		cfg := base
		cfg.RepairCrews = crews
		m := san.NewModel("crews")
		sp, err := BuildStorage(m, "storage", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if (crews > 0) != (sp.RepairCrews != nil) {
			t.Fatalf("RepairCrews place presence wrong for %d crews", crews)
		}
		rewards := []san.RewardVariable{
			san.TokenTimeAverage("backlog", sp.DisksDown),
		}
		if sp.RepairCrews != nil {
			// Time-averaged busy crews: initial tokens minus idle tokens. It
			// can never exceed the crew count.
			crewPlace := sp.RepairCrews
			rewards = append(rewards, san.RewardVariable{
				Name: "busy_crews",
				Mode: san.TimeAveraged,
				Rate: func(mr san.MarkingReader) float64 {
					busy := crews - mr.Tokens(crewPlace)
					if busy < 0 {
						t.Errorf("crew place over-allocated: %d idle of %d", mr.Tokens(crewPlace), crews)
					}
					return float64(busy)
				},
			})
		}
		res, err := san.RunReplications(m, rewards, opts)
		if err != nil {
			t.Fatal(err)
		}
		busy := 0.0
		if sp.RepairCrews != nil {
			busy = res.Mean("busy_crews")
		}
		return res.Mean("backlog"), busy
	}

	unlimited, _ := backlog(0)
	capped, busy := backlog(1)
	if !(capped > 1.5*unlimited) {
		t.Errorf("1-crew backlog %v should clearly exceed unlimited backlog %v", capped, unlimited)
	}
	if busy <= 0 || busy > 1 {
		t.Errorf("time-averaged busy crews = %v, want in (0, 1] for one crew", busy)
	}
}

// TestDiskErlangReplace pins the Erlang replacement knob: validation
// rejects the degenerate stage counts, the replacement distribution becomes
// an Erlang of the configured mean, and the tier verdict names the exact
// phase-type remedy instead of a bare refusal.
func TestDiskErlangReplace(t *testing.T) {
	d := DefaultDisk()
	d.ErlangReplaceStages = 4
	if err := d.Validate(); err != nil {
		t.Fatalf("Erlang replacement rejected: %v", err)
	}
	rd, err := d.replaceDist()
	if err != nil {
		t.Fatal(err)
	}
	g, ok := rd.(dist.Gamma)
	if !ok {
		t.Fatalf("replaceDist returned %T, want dist.Gamma", rd)
	}
	if math.Abs(g.Mean()-d.ReplaceHours) > 1e-9 {
		t.Errorf("Erlang replacement mean = %v, want %v", g.Mean(), d.ReplaceHours)
	}
	d.ErlangReplaceStages = 1
	if err := d.Validate(); err == nil {
		t.Error("single-stage Erlang accepted; that is the exponential form")
	}
	d.ErlangReplaceStages = -2
	if err := d.Validate(); err == nil {
		t.Error("negative stage count accepted")
	}

	cfg := ABEStorage()
	cfg.Disk.ErlangReplaceStages = 4
	v := cfg.TierLumpability()
	if v.Lumpable {
		t.Error("Erlang replacement must break tier lumpability")
	}
	found := false
	for _, r := range v.Reasons {
		if strings.Contains(r, "disk_replace") && strings.Contains(r, "exactly expandable into 4 exponential phases") {
			found = true
		}
	}
	if !found {
		t.Errorf("tier verdict must name the phase-type remedy, got %v", v.Reasons)
	}
}
