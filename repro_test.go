package repro

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/abe"
	"repro/internal/sweep"
)

func TestVersion(t *testing.T) {
	if Version == "" {
		t.Fatal("Version is empty")
	}
}

func TestConfigsAndEvaluate(t *testing.T) {
	abeCfg := ABEConfig()
	if abeCfg.Storage.TotalDisks() != 480 {
		t.Errorf("ABE disks = %d, want 480", abeCfg.Storage.TotalDisks())
	}
	peta := PetascaleConfig()
	if peta.Storage.TotalDisks() != 4800 {
		t.Errorf("petascale disks = %d, want 4800", peta.Storage.TotalDisks())
	}
	measures, err := Evaluate(abeCfg, EvaluationOptions{Replications: 8, MissionHours: 4380, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if measures.CFSAvailability <= 0.9 || measures.CFSAvailability > 1 {
		t.Errorf("CFS availability = %v", measures.CFSAvailability)
	}
}

func TestExperimentFacade(t *testing.T) {
	names := ExperimentNames()
	if len(names) == 0 {
		t.Fatal("no experiments")
	}
	out, err := RunExperiment("table5", EvaluationOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Disk MTBF") {
		t.Errorf("table5 output missing parameters:\n%s", out)
	}
	if _, err := RunExperiment("nope", EvaluationOptions{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestLogFacade(t *testing.T) {
	logs, err := GenerateABELogs()
	if err != nil {
		t.Fatal(err)
	}
	rates, err := AnalyzeLogs(logs, 480)
	if err != nil {
		t.Fatal(err)
	}
	if rates.CFSAvailability <= 0.9 || rates.CFSAvailability >= 1 {
		t.Errorf("log availability = %v", rates.CFSAvailability)
	}
}

func TestCalibrateFromLogs(t *testing.T) {
	logs, err := GenerateABELogs()
	if err != nil {
		t.Fatal(err)
	}
	cfg, derived, err := CalibrateFromLogs(logs, ABEConfig(), 480)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Storage.Disk.ShapeBeta != derived.DiskWeibullShape {
		t.Errorf("calibrated shape %v != derived %v", cfg.Storage.Disk.ShapeBeta, derived.DiskWeibullShape)
	}
	if cfg.Storage.Disk.MTBFHours != derived.DiskMTBFHours {
		t.Errorf("calibrated MTBF %v != derived %v", cfg.Storage.Disk.MTBFHours, derived.DiskMTBFHours)
	}
	if cfg.Workload.JobsPerHour != derived.JobsPerHour {
		t.Errorf("calibrated job rate %v != derived %v", cfg.Workload.JobsPerHour, derived.JobsPerHour)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("calibrated config invalid: %v", err)
	}
	if _, _, err := CalibrateFromLogs(nil, ABEConfig(), 480); err == nil {
		t.Error("nil logs accepted")
	}
}

func TestReproducePaperFacade(t *testing.T) {
	doc, err := ReproducePaper(EvaluationOptions{Quick: true, Replications: 4, MissionHours: 2190, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"calibration"`, `"round_trip"`, `"points"`, `"tables"`} {
		if !strings.Contains(doc, want) {
			t.Errorf("paper reproduction document missing %s section", want)
		}
	}
}

func TestCompareDesignsFacade(t *testing.T) {
	designs := map[string]abe.Config{
		"ABE baseline":       ABEConfig(),
		"ABE with spare OSS": ABEConfig().WithSpareOSS(true),
	}
	out, err := CompareDesigns(designs, EvaluationOptions{Replications: 6, MissionHours: 2000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ABE") || !strings.Contains(out, "spare") {
		t.Errorf("comparison missing designs:\n%s", out)
	}
	if _, err := CompareDesigns(nil, EvaluationOptions{}); err == nil {
		t.Error("empty design map accepted")
	}
	if _, err := CompareDesigns(map[string]abe.Config{"bad": {}}, EvaluationOptions{}); err == nil {
		t.Error("invalid design accepted")
	}
}

func TestCompareDesigns(t *testing.T) {
	// One row per design, in name order whatever the map's iteration order.
	designs := map[string]abe.Config{
		"b: ABE with spare OSS": ABEConfig().WithSpareOSS(true),
		"a: ABE (8+2)":          ABEConfig(),
	}
	out, err := CompareDesigns(designs, EvaluationOptions{Replications: 8, MissionHours: 4380, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	first, second := strings.Index(out, "a: ABE (8+2)"), strings.Index(out, "b: ABE with spare OSS")
	if first < 0 || second < 0 || first > second {
		t.Errorf("comparison table rows missing or out of name order:\n%s", out)
	}
	if _, err := CompareDesigns(map[string]abe.Config{}, EvaluationOptions{}); !errors.Is(err, sweep.ErrNoPoints) {
		t.Errorf("empty designs error = %v, want sweep.ErrNoPoints", err)
	}
}
