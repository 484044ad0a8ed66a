package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (plus the ablations listed in DESIGN.md). Each benchmark
// regenerates the corresponding artifact end to end — log generation and
// analysis for Tables 1-4, model construction for Figure 1, and replicated
// Monte Carlo simulation for Figures 2-4 — using the Quick experiment
// options so a full `go test -bench=.` pass stays tractable. The rendered
// outputs (the rows/series the paper reports) are recorded in
// EXPERIMENTS.md; these benchmarks measure the cost of regenerating them and
// guard against regressions in the pipeline.

import (
	"testing"

	"repro/internal/abe"
	"repro/internal/experiments"
	"repro/internal/raid"
	"repro/internal/san"
	"repro/internal/sweep"
)

// benchOptions keeps per-iteration cost bounded: quick sweeps, few
// replications, half-year missions for the heavier composed-model studies.
func benchOptions() experiments.Options {
	return experiments.Options{Quick: true, Replications: 8, MissionHours: 4380, Seed: 1}
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	opts := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := experiments.Run(name, opts)
		if err != nil {
			b.Fatalf("experiment %s: %v", name, err)
		}
		if out == "" {
			b.Fatalf("experiment %s produced no output", name)
		}
	}
}

// BenchmarkTable1OutageLog regenerates Table 1 (Lustre-FS outage list and
// availability) from synthetic SAN logs.
func BenchmarkTable1OutageLog(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2MountFailures regenerates Table 2 (per-day Lustre mount
// failures reported by compute nodes).
func BenchmarkTable2MountFailures(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3JobStats regenerates Table 3 (job execution statistics).
func BenchmarkTable3JobStats(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4DiskSurvival regenerates Table 4 (disk failure log and the
// censored Weibull survival fit).
func BenchmarkTable4DiskSurvival(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkTable5ParameterSpace regenerates Table 5 (model parameters for
// the ABE and petascale configurations).
func BenchmarkTable5ParameterSpace(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkFigure1ModelComposition builds and validates the composed
// replicate/join CFS model (Figure 1).
func BenchmarkFigure1ModelComposition(b *testing.B) { runExperiment(b, "figure1") }

// BenchmarkFigure2StorageAvailability regenerates Figure 2 (storage
// availability versus storage size for several disk/RAID configurations).
func BenchmarkFigure2StorageAvailability(b *testing.B) { runExperiment(b, "figure2") }

// BenchmarkFigure3DiskReplacement regenerates Figure 3 (disks replaced per
// week versus number of disks for several AFRs).
func BenchmarkFigure3DiskReplacement(b *testing.B) { runExperiment(b, "figure3") }

// BenchmarkFigure4AvailabilityAndCU regenerates Figure 4 (storage/CFS
// availability, cluster utility, and the spare-OSS alternative versus scale).
func BenchmarkFigure4AvailabilityAndCU(b *testing.B) { runExperiment(b, "figure4") }

// BenchmarkAblationCorrelation sweeps the correlated-failure propagation
// probability at petascale (the design factor the paper blames for the CFS
// availability drop).
func BenchmarkAblationCorrelation(b *testing.B) { runExperiment(b, "ablation-correlation") }

// BenchmarkAblationAnalyticVsSim cross-checks the SAN simulation against the
// analytic birth-death tier model for exponential disks.
func BenchmarkAblationAnalyticVsSim(b *testing.B) { runExperiment(b, "ablation-analytic") }

// BenchmarkExtensionCheckpoint runs the future-work extension: the
// checkpoint/restart efficiency implied by the measured CFS dependability at
// ABE and petascale sizes.
func BenchmarkExtensionCheckpoint(b *testing.B) { runExperiment(b, "extension-checkpoint") }

// BenchmarkSolverVsSimulation measures the two tiers the sweep engine now
// selects between on the exponential-forms figure4 cross-check point (the
// largest configuration whose composed model passes the structural
// certificate): "uniformization" runs certification plus the exact transient
// solve end to end through sweep.Run, "simulation" forces the same model
// through a full 60-replication study. The comparison is at unequal
// accuracy: the solver's answer is exact (zero variance), while 60
// replications leave a ~4e-2 CFS-availability half-width (reported as the
// cfs_hw metric). At matched accuracy the solver wins by orders of
// magnitude — halving a simulation half-width costs 4x the replications, so
// closing a 4e-2 interval to even 1e-3 needs ~1600x the simulated work —
// which is why the sweep engine always prefers a certified analytic answer
// regardless of the raw wall-clock ratio on small models.
func BenchmarkSolverVsSimulation(b *testing.B) {
	opts := san.Options{Mission: 8760, Replications: 60, Confidence: 0.95, Seed: 1}
	pair := experiments.Figure4CrossCheckPoints(opts.Seed)
	for _, tc := range []struct {
		name   string
		point  sweep.Point
		method string
	}{
		{"uniformization", pair[0], sweep.MethodUniformization},
		{"simulation", pair[1], sweep.MethodSimulation},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var hw float64
			for i := 0; i < b.N; i++ {
				res, err := sweep.Run([]sweep.Point{tc.point}, opts)
				if err != nil {
					b.Fatal(err)
				}
				if got := res.Points[0].Solver.Method; got != tc.method {
					b.Fatalf("solved by %q, want %q (reasons %v)", got, tc.method, res.Points[0].Solver.Reasons)
				}
				hw = res.Points[0].Measures.Intervals[abe.RewardCFSAvailability].HalfWidth
			}
			b.ReportMetric(hw, "cfs_hw")
		})
	}
}

// BenchmarkFitSolverVsSimulation is the approximate-tier counterpart of
// BenchmarkSolverVsSimulation: the Weibull-disk mini configuration has no
// exact phase-type form, so "uniformization-approx" runs certification,
// the certified phase-type fit (tolerance experiments.Figure4FitTolerance),
// and the exact transient solve of the surrogate end to end through
// sweep.Run, while "simulation" forces the original Weibull model through
// a full 60-replication study. The accuracy comparison carries one extra
// term: the analytic answer is exact for the surrogate and within the
// certified Kolmogorov bound of the original, while the simulation's
// half-width (cfs_hw) shrinks only as 1/sqrt(replications).
func BenchmarkFitSolverVsSimulation(b *testing.B) {
	opts := san.Options{Mission: 8760, Replications: 60, Confidence: 0.95, Seed: 1,
		PHFitTolerance: experiments.Figure4FitTolerance}
	pair := experiments.Figure4WeibullCrossCheckPoints(opts.Seed)
	for _, tc := range []struct {
		name   string
		point  sweep.Point
		method string
	}{
		{"uniformization-approx", pair[0], sweep.MethodUniformizationApprox},
		{"simulation", pair[1], sweep.MethodSimulation},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var hw float64
			for i := 0; i < b.N; i++ {
				res, err := sweep.Run([]sweep.Point{tc.point}, opts)
				if err != nil {
					b.Fatal(err)
				}
				if got := res.Points[0].Solver.Method; got != tc.method {
					b.Fatalf("solved by %q, want %q (reasons %v)", got, tc.method, res.Points[0].Solver.Reasons)
				}
				hw = res.Points[0].Measures.Intervals[abe.RewardCFSAvailability].HalfWidth
			}
			b.ReportMetric(hw, "cfs_hw")
		})
	}
}

// BenchmarkAblationSpareOSS isolates the standby-spare OSS design choice at
// petascale (Figure 4's fourth series) without the rest of the sweep.
func BenchmarkAblationSpareOSS(b *testing.B) {
	opts := san.Options{Mission: 4380, Replications: 8, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base, err := abe.Evaluate(abe.Petascale(), opts)
		if err != nil {
			b.Fatal(err)
		}
		spare, err := abe.Evaluate(abe.Petascale().WithSpareOSS(true), opts)
		if err != nil {
			b.Fatal(err)
		}
		if spare.CFSAvailability < base.CFSAvailability-0.05 {
			b.Fatalf("spare OSS regressed availability: %v vs %v", spare.CFSAvailability, base.CFSAvailability)
		}
	}
}

// BenchmarkAblationReplicationCount measures the cost of the ABE composed
// model per replication count, the knob that trades confidence-interval
// width against runtime.
func BenchmarkAblationReplicationCount(b *testing.B) {
	for _, reps := range []int{4, 16, 64} {
		reps := reps
		b.Run(benchName("replications", reps), func(b *testing.B) {
			cfg := abe.ABE()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := abe.Evaluate(cfg, san.Options{Mission: 4380, Replications: reps, Seed: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelConstruction measures building (not simulating) the composed
// model at ABE and petascale sizes — the fixed cost every study pays.
func BenchmarkModelConstruction(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  abe.Config
	}{
		{"ABE", abe.ABE()},
		{"Petascale", abe.Petascale()},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				model := san.NewModel(tc.cfg.Name)
				if _, err := abe.Build(model, tc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStorageSimulationPerDisk measures the raw simulation throughput
// of the storage submodel as the disk count grows (Figure 2/3 inner loop).
func BenchmarkStorageSimulationPerDisk(b *testing.B) {
	for _, disks := range []int{480, 4800} {
		disks := disks
		b.Run(benchName("disks", disks), func(b *testing.B) {
			cfg, err := raid.ABEStorage().ScaledToDisks(disks)
			if err != nil {
				b.Fatal(err)
			}
			model := san.NewModel("bench-storage")
			sp, err := raid.BuildStorage(model, "storage", cfg)
			if err != nil {
				b.Fatal(err)
			}
			rewards := []san.RewardVariable{sp.AvailabilityReward("availability")}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := san.RunReplications(model, rewards, san.Options{Mission: 8760, Replications: 4, Seed: uint64(i + 1)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchName formats sub-benchmark labels without fmt in the hot path.
func benchName(prefix string, n int) string {
	digits := ""
	if n == 0 {
		digits = "0"
	}
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return prefix + "-" + digits
}
