// The log_analysis example runs the paper's Section 3 pipeline end to end:
// it generates the calibrated synthetic ABE failure logs (the stand-in for
// NCSA's proprietary logs), analyzes them to reproduce Tables 1-4, derives
// the model parameters, and feeds the calibrated parameters back into the
// dependability model to check that the modeled availability matches the
// availability observed in the log — the paper's validation loop.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/abe"
	"repro/internal/calibrate"
	"repro/internal/loganalysis"
	"repro/internal/loggen"
	"repro/internal/san"
)

func main() {
	log.SetFlags(0)

	logs, err := loggen.Generate(loggen.ABEConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d SAN events and %d compute events\n\n", len(logs.SAN), len(logs.Compute))

	outages, err := loganalysis.AnalyzeOutages(logs.SAN)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Table 1: %d outages, %.1f h downtime, availability %.4f\n",
		len(outages.Outages), outages.DowntimeHours, outages.Availability)

	mounts, err := loganalysis.AnalyzeMountFailures(logs.Compute)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Table 2: mount-failure bursts on %d days\n", len(mounts))

	jobs, err := loganalysis.AnalyzeJobs(logs.Compute)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Table 3: %d jobs, %d transient failures, %d other failures (ratio %.1f)\n",
		jobs.TotalJobs, jobs.TransientFailures, jobs.OtherFailures, jobs.FailureRatio())

	disks, err := loganalysis.AnalyzeDisks(logs.SAN, 480)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Table 4: %d disk failures (%.2f/week), Weibull shape %.4f ± %.4f\n\n",
		disks.TotalFailures, disks.PerWeek, disks.Fit.Shape, disks.Fit.ShapeStdErr)

	// Calibrate the model from the logs and validate it against the observed
	// availability.
	cal, err := calibrate.CalibrateWith(logs, 480, abe.ABE())
	if err != nil {
		log.Fatal(err)
	}
	measures, err := abe.Evaluate(cal.Config, san.Options{Mission: 8760, Replications: 40, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("log-observed CFS availability:   %.4f\n", cal.Rates.CFSAvailability)
	fmt.Printf("model-predicted CFS availability: %.4f (|diff| = %.4f)\n",
		measures.CFSAvailability, math.Abs(measures.CFSAvailability-cal.Rates.CFSAvailability))
	fmt.Printf("model-predicted disks/week:       %.2f (log observed %.2f)\n",
		measures.DiskReplacementsPerWeek, cal.Rates.DiskReplacementsPerWeek)
}
