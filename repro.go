// Package repro reproduces "Scaling File Systems to Support Petascale
// Clusters: A Dependability Analysis to Support Informed Design Choices"
// (Gaonkar, Rozier, Tong, Sanders — DSN 2008 / UIUC CRHC-08-01).
//
// It re-implements, in pure Go with only the standard library, the stack the
// paper builds on: a stochastic-activity-network (SAN) modeling formalism
// and Monte Carlo simulator (the role Möbius plays in the original study),
// the failure-log analysis pipeline of NCSA's ABE cluster (on calibrated
// synthetic logs), the RAID6/DDN storage and OSS fail-over submodels, the
// composed cluster-file-system dependability model, and an experiment
// harness that regenerates every table and figure of the evaluation.
//
// This file is the stable facade for downstream users; the full APIs live in
// the internal packages (internal/abe, internal/san, internal/experiments,
// ...) and are exercised by the examples/ programs.
package repro

import (
	"maps"
	"slices"

	"repro/internal/abe"
	"repro/internal/calibrate"
	"repro/internal/experiments"
	"repro/internal/loganalysis"
	"repro/internal/loggen"
	"repro/internal/san"
	"repro/internal/sweep"
)

// Version identifies the reproduction release.
const Version = "1.0.0"

// EvaluationOptions tunes the simulation studies run through this facade.
type EvaluationOptions struct {
	// Replications per design point; 0 selects a sensible default.
	Replications int
	// MissionHours per replication; 0 selects one year.
	MissionHours float64
	// Seed makes studies reproducible; 0 selects 1.
	Seed uint64
	// Quick trades accuracy for speed (benchmarks, smoke tests).
	Quick bool
}

func (o EvaluationOptions) sanOptions() san.Options {
	return san.Options{
		Mission:      o.MissionHours,
		Replications: o.Replications,
		Seed:         o.Seed,
		Confidence:   0.95,
	}
}

func (o EvaluationOptions) experimentOptions() experiments.Options {
	return experiments.Options{
		Replications: o.Replications,
		MissionHours: o.MissionHours,
		Seed:         o.Seed,
		Quick:        o.Quick,
	}
}

// ABEConfig returns the configuration of NCSA's ABE cluster file system as
// described in the paper's Section 3 and Table 5.
func ABEConfig() abe.Config { return abe.ABE() }

// PetascaleConfig returns the Blue Waters-class petascale configuration the
// paper scales the ABE design to.
func PetascaleConfig() abe.Config { return abe.Petascale() }

// Evaluate runs the composed dependability model for cfg and returns the
// paper's reward measures (storage availability, CFS availability, cluster
// utility, disk replacement rate) with 95% confidence intervals.
func Evaluate(cfg abe.Config, opts EvaluationOptions) (abe.Measures, error) {
	return abe.Evaluate(cfg, opts.sanOptions())
}

// ExperimentNames lists the table/figure experiments understood by
// RunExperiment (table1..table5, figure1..figure4, ablations).
func ExperimentNames() []string { return experiments.Names() }

// RunExperiment regenerates one of the paper's tables or figures and returns
// its rendered text output.
func RunExperiment(name string, opts EvaluationOptions) (string, error) {
	return experiments.Run(name, opts.experimentOptions())
}

// GenerateABELogs produces the calibrated synthetic failure logs substituted
// for NCSA's proprietary ABE logs (see the package loggen comment).
func GenerateABELogs() (*loggen.Logs, error) {
	return loggen.Generate(loggen.ABEConfig())
}

// AnalyzeLogs runs the paper's log-analysis pipeline over a set of logs,
// returning the derived model parameters (availability, failure fractions,
// disk Weibull fit).
func AnalyzeLogs(logs *loggen.Logs, diskPopulation int) (loganalysis.DerivedRates, error) {
	return loganalysis.DeriveRates(logs, diskPopulation)
}

// CalibrateFromLogs applies log-derived rates to a base configuration,
// mirroring the paper's data-driven modeling approach. The derived rates are
// returned so callers can report them (Table 5's "obtained from log file
// analysis" entries); package calibrate has the fitted distributions and the
// per-parameter provenance.
func CalibrateFromLogs(logs *loggen.Logs, base abe.Config, diskPopulation int) (abe.Config, loganalysis.DerivedRates, error) {
	cal, err := calibrate.CalibrateWith(logs, diskPopulation, base)
	if err != nil {
		return abe.Config{}, loganalysis.DerivedRates{}, err
	}
	return cal.Config, cal.Rates, nil
}

// ReproducePaper runs the whole paper in one shot from the (synthetic)
// measured logs — analyze (Tables 1-4), calibrate the model with provenance
// (Table 5), run the scaling sweep from the derived parameters, and round-
// trip the calibration — and returns the machine-readable JSON document
// (the "paper_full" experiment; see internal/calibrate for the schema).
func ReproducePaper(opts EvaluationOptions) (string, error) {
	res, err := experiments.PaperFull(opts.experimentOptions())
	if err != nil {
		return "", err
	}
	return res.JSON()
}

// CompareDesigns evaluates several design alternatives side by side and
// returns a rendered comparison table, one row per design in name order.
// The designs run as one sweep, and every design is pinned to the same study
// seed (common random numbers), so measured differences reflect the
// designs, not the draws.
func CompareDesigns(designs map[string]abe.Config, opts EvaluationOptions) (string, error) {
	sanOpts := opts.sanOptions().WithDefaults()
	names := slices.Sorted(maps.Keys(designs))
	points := make([]sweep.Point, len(names))
	for i, name := range names {
		points[i] = sweep.Point{Label: name, Config: designs[name], Seed: sanOpts.Seed}
	}
	res, err := sweep.Run(points, sanOpts)
	if err != nil {
		return "", err
	}
	table := res.Table("Design comparison")
	table.Headers[0] = "Design"
	return table.Render(), nil
}
