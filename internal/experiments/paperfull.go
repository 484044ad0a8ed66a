package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/abe"
	"repro/internal/calibrate"
	"repro/internal/loganalysis"
	"repro/internal/loggen"
	"repro/internal/report"
	"repro/internal/sweep"
)

// PaperFullResult is the single-run reproduction of the paper: the synthetic
// ABE logs are generated, analyzed (Tables 1-4), calibrated into model
// parameters with provenance (Table 5), and the Figure 4/5 scaling sweep is
// evaluated from the *derived* configuration — no hard-coded Table 5
// constants sit between the logs and the simulation. A round trip
// (regenerate logs under the calibrated parameters, re-derive the rates)
// quantifies how tightly the loop closes.
type PaperFullResult struct {
	// Calibration is the full log-to-model calibration.
	Calibration *calibrate.Calibration
	// Tables holds Tables 1-5 in paper order (Table 5 is the provenance
	// table of the calibrated parameters).
	Tables []report.Table
	// Figure is the Figure 4 scaling study projected from Sweep.
	Figure report.Figure
	// Sweep is the underlying scaling sweep over the calibrated
	// configuration.
	Sweep *sweep.Result
	// RoundTrip compares the calibration inputs against rates re-derived
	// from logs regenerated under the calibrated parameters.
	RoundTrip RoundTrip
}

// RoundTrip is the measured-data loop check of the paper_full experiment.
type RoundTrip struct {
	// InputRates are the rates the calibration derived from the original
	// logs.
	InputRates loganalysis.DerivedRates `json:"input_rates"`
	// RederivedRates are the rates derived from logs regenerated under the
	// calibrated parameters.
	RederivedRates loganalysis.DerivedRates `json:"rederived_rates"`
	// RelativeError maps rate names to |rederived - input| / |input|.
	RelativeError map[string]float64 `json:"relative_error"`
}

// roundTrip regenerates logs under the calibrated parameters and re-derives
// the rates.
func roundTrip(cal *calibrate.Calibration, base loggen.Config) (RoundTrip, error) {
	regen, err := loggen.Generate(cal.LogConfig(base))
	if err != nil {
		return RoundTrip{}, fmt.Errorf("paper_full: regenerating logs: %w", err)
	}
	rerates, err := loganalysis.DeriveRates(regen, cal.Population)
	if err != nil {
		return RoundTrip{}, fmt.Errorf("paper_full: re-deriving rates: %w", err)
	}
	in, out := cal.Rates, rerates
	relErr := func(a, b float64) float64 {
		if a == 0 {
			return math.Abs(b)
		}
		return math.Abs(b-a) / math.Abs(a)
	}
	return RoundTrip{
		InputRates:     in,
		RederivedRates: out,
		RelativeError: map[string]float64{
			"cfs_availability":               relErr(in.CFSAvailability, out.CFSAvailability),
			"outages_per_month":              relErr(in.OutagesPerMonth, out.OutagesPerMonth),
			"mean_outage_hours":              relErr(in.MeanOutageHours, out.MeanOutageHours),
			"jobs_per_hour":                  relErr(in.JobsPerHour, out.JobsPerHour),
			"transient_job_failure_fraction": relErr(in.TransientJobFailureFraction, out.TransientJobFailureFraction),
			"other_job_failure_fraction":     relErr(in.OtherJobFailureFraction, out.OtherJobFailureFraction),
			"disk_weibull_shape":             relErr(in.DiskWeibullShape, out.DiskWeibullShape),
			"disk_mtbf_hours":                relErr(in.DiskMTBFHours, out.DiskMTBFHours),
			"disk_replacements_per_week":     relErr(in.DiskReplacementsPerWeek, out.DiskReplacementsPerWeek),
		},
	}, nil
}

// PaperFull runs the whole paper in one shot from measured (synthetic) logs:
// generate -> analyze -> calibrate -> simulate -> round-trip.
func PaperFull(opts Options) (*PaperFullResult, error) {
	opts = opts.withDefaults()
	genCfg := loggen.ABEConfig()
	// Like abeLogs for the standalone tables: opts.Seed (default 1) seeds
	// the generator, so paper_full's Tables 1-4 match tableN runs with the
	// same options.
	genCfg.Seed = opts.Seed
	logs, err := loggen.Generate(genCfg)
	if err != nil {
		return nil, fmt.Errorf("paper_full: generating logs: %w", err)
	}
	// The ABE base supplies only the parameters logs cannot identify (RAID
	// geometry, OSS pair counts, controller rates); every log-identifiable
	// parameter is overridden by the calibration.
	cal, err := calibrate.CalibrateWith(logs, genCfg.Disks, abe.ABE())
	if err != nil {
		return nil, fmt.Errorf("paper_full: %w", err)
	}

	// Tables 1-5 render the exact analyses the calibration ran — the logs
	// are not re-analyzed.
	res := &PaperFullResult{
		Calibration: cal,
		Tables: []report.Table{
			table1FromReport(cal.Outages),
			table2FromDays(cal.Mounts),
			table3FromStats(cal.Jobs),
			table4FromReport(cal.Disks, cal.Population),
			table5FromCalibration(cal),
		},
	}

	// Figure 4/5 scaling sweep over the *calibrated* configuration.
	factors := Figure4ScaleFactors(opts.Quick)
	res.Sweep, err = sweep.Run(Figure4PointsFrom(cal.Config, opts.Seed, factors), opts.sanOptions())
	if err != nil {
		return nil, fmt.Errorf("paper_full: scaling sweep: %w", err)
	}
	res.Figure = figure4FromSweep(res.Sweep, factors)
	res.Figure.Title = "Figure 4: Availability and utility at scale, from the log-calibrated model"

	if res.RoundTrip, err = roundTrip(cal, genCfg); err != nil {
		return nil, err
	}
	return res, nil
}

// table5FromCalibration is the paper_full version of Table 5: the model
// parameters with their log-analysis provenance, instead of the hard-coded
// configuration constants Table5Parameters reports.
func table5FromCalibration(cal *calibrate.Calibration) report.Table {
	t := cal.Table()
	t.Title = "Table 5: simulation model parameters derived from log analysis"
	return t
}

// Render returns the tables, the scaling figure, and the round-trip summary
// as one text report.
func (r *PaperFullResult) Render() string {
	var b strings.Builder
	for _, t := range r.Tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	b.WriteString(r.Figure.Render())
	b.WriteByte('\n')
	rt := report.Table{
		Title:   "Round trip: rates re-derived from logs regenerated under the calibrated parameters",
		Headers: []string{"Rate", "Input", "Re-derived", "Relative error"},
	}
	in, out := r.RoundTrip.InputRates, r.RoundTrip.RederivedRates
	for _, row := range []struct {
		name    string
		in, out float64
	}{
		{"cfs_availability", in.CFSAvailability, out.CFSAvailability},
		{"outages_per_month", in.OutagesPerMonth, out.OutagesPerMonth},
		{"mean_outage_hours", in.MeanOutageHours, out.MeanOutageHours},
		{"jobs_per_hour", in.JobsPerHour, out.JobsPerHour},
		{"transient_job_failure_fraction", in.TransientJobFailureFraction, out.TransientJobFailureFraction},
		{"other_job_failure_fraction", in.OtherJobFailureFraction, out.OtherJobFailureFraction},
		{"disk_weibull_shape", in.DiskWeibullShape, out.DiskWeibullShape},
		{"disk_mtbf_hours", in.DiskMTBFHours, out.DiskMTBFHours},
		{"disk_replacements_per_week", in.DiskReplacementsPerWeek, out.DiskReplacementsPerWeek},
	} {
		rt.AddRow(row.name, fmt.Sprintf("%.4g", row.in), fmt.Sprintf("%.4g", row.out),
			fmt.Sprintf("%.1f%%", r.RoundTrip.RelativeError[row.name]*100))
	}
	b.WriteString(rt.Render())
	return b.String()
}

// paperFullReport extends the sweep's machine-readable report (schema in
// docs/statespace.md, "Report schema") with the calibration, the tables, and
// the round trip.
type paperFullReport struct {
	sweep.Report
	Calibration calibrate.Report `json:"calibration"`
	Tables      []report.Table   `json:"tables"`
	RoundTrip   RoundTrip        `json:"round_trip"`
}

// JSON returns the experiment as one JSON document: the sweep report's
// fields at the top level plus "calibration", "tables", and "round_trip"
// sections. Execution details (parallelism) are excluded, so the document is
// bit-identical however the sweep was scheduled.
func (r *PaperFullResult) JSON() (string, error) {
	return report.ToJSON(paperFullReport{
		Report:      r.Sweep.Report(),
		Calibration: r.Calibration.Report(),
		Tables:      r.Tables,
		RoundTrip:   r.RoundTrip,
	})
}
