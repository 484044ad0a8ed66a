package main

import (
	"fmt"

	"repro/internal/abe"
	"repro/internal/experiments"
	"repro/internal/san"
	"repro/internal/sweep"
)

// procs is the GOMAXPROCS every child runs with and the Parallelism every
// workload asks for: one process, no more threads than the reference
// machine's two CPUs.
const procs = 2

// sweepCall is one sweep.Run call of a workload.
type sweepCall struct {
	points []sweep.Point
	opts   san.Options
}

// workload is one input set of the benchmark. calls lists the sweep.Run
// calls the workload makes, in order, with their results merged as
// experiments.Figure4Sweep merges them; the traced replay mirrors them.
// timed, when set, is the timed call instead of running calls — the same
// sweeps behind the user-facing API.
type workload struct {
	name  string
	runs  int // child runs per set when the run is not time-boxed
	calls func(seed uint64) []sweepCall
	timed func(seed uint64) (string, error)
}

// workloads are declared, with why each was chosen, in BENCHMARK.json and
// benchmark/README.md.
var workloads = []workload{
	{
		name:  "figure4",
		runs:  3,
		calls: figure4Calls,
		timed: figure4Artifact,
	},
	{
		name:  "analytic_sweep",
		runs:  5,
		calls: analyticCalls,
	},
	{
		name:  "petascale_sim",
		runs:  5,
		calls: petascaleCalls,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// figure4Artifact is `abesim -experiment figure4 -quick -replications 60
// -parallelism 2 -json`.
func figure4Artifact(seed uint64) (string, error) {
	opts := experiments.Options{Quick: true, Replications: 60, MissionHours: 8760, Seed: seed, Parallelism: procs}
	a, err := experiments.RunArtifact("figure4", opts)
	if err != nil {
		return "", err
	}
	return a.JSON()
}

// figure4Calls are the two sweeps experiments.Figure4Sweep runs: the scaling
// pairs with the exponential and Erlang cross-check pairs, then the Weibull
// pair with the approximate tier opted in.
func figure4Calls(seed uint64) []sweepCall {
	opts := san.Options{Mission: 8760, Replications: 60, Confidence: 0.95, Seed: seed, Parallelism: procs}
	main := experiments.Figure4Points(seed, experiments.Figure4ScaleFactors(true))
	main = append(main, experiments.Figure4CrossCheckPoints(seed)...)
	main = append(main, experiments.Figure4ErlangCrossCheckPoints(seed)...)
	fit := opts
	fit.PHFitTolerance = experiments.Figure4FitTolerance
	return []sweepCall{
		{points: main, opts: opts},
		{points: experiments.Figure4WeibullCrossCheckPoints(seed), opts: fit},
	}
}

// analyticCalls is one sweep whose every point is answered analytically.
// The duplicates hit the solve cache; the distinct Weibull MTBFs keep it
// from hiding the solver's cost.
func analyticCalls(seed uint64) []sweepCall {
	weibull := func(mtbf float64) sweep.Point {
		cfg := abe.MiniWeibull()
		cfg.Storage.Disk.MTBFHours = mtbf
		return sweep.Point{Label: fmt.Sprintf("%s mtbf=%g", cfg.Name, mtbf), Config: cfg}
	}
	exp := abe.MiniExponential()
	points := []sweep.Point{
		{Config: exp},
		{Config: abe.MiniErlang()},
		{Config: exp.ScaledBy(2)},
		weibull(1000),
		weibull(1250),
		weibull(1500),
		{Label: exp.Name + " [duplicate]", Config: exp},
		{Label: weibull(1000).Label + " [duplicate]", Config: weibull(1000).Config},
	}
	opts := san.Options{Mission: 8760, Replications: 60, Confidence: 0.95, Seed: seed, Parallelism: procs, PHFitTolerance: 0.1}
	return []sweepCall{{points: points, opts: opts}}
}

// petascaleCalls is one forced-simulation sweep over the petascale point,
// its spare-OSS variant and its fully exponential lumped form.
func petascaleCalls(seed uint64) []sweepCall {
	p := abe.Petascale()
	points := []sweep.Point{
		{Config: p, ForceSimulation: true},
		{Label: p.Name + " +spare OSS", Config: p.WithSpareOSS(true), ForceSimulation: true},
		{Label: p.Name + " exponential lumped", Config: p.WithExponentialForms().WithLumping(true), ForceSimulation: true},
	}
	opts := san.Options{Mission: 8760, Replications: 512, Confidence: 0.95, Seed: seed, Parallelism: procs}
	return []sweepCall{{points: points, opts: opts}}
}

// run is the timed call: the workload's sweeps, given as calls (built by
// w.calls(seed) before the clock starts), and their JSON report.
func (w workload) run(seed uint64, calls []sweepCall) (string, error) {
	if w.timed != nil {
		return w.timed(seed)
	}
	var merged *sweep.Result
	for _, c := range calls {
		res, err := sweep.Run(c.points, c.opts)
		if err != nil {
			return "", err
		}
		merged = merge(merged, res)
	}
	return merged.JSON()
}

// merge appends next's points and events to acc, as Figure4Sweep does; the
// first result keeps its options.
func merge(acc, next *sweep.Result) *sweep.Result {
	if acc == nil {
		return next
	}
	acc.Points = append(acc.Points, next.Points...)
	acc.TotalEvents += next.TotalEvents
	return acc
}
