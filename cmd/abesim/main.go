// Command abesim regenerates the paper's evaluation: every table and figure
// plus the ablation studies, using the reimplemented SAN simulator and the
// ABE/petascale configurations. The rare_event_dataloss experiment
// demonstrates the multilevel importance-splitting engine: it estimates a
// data-loss probability far below naive Monte Carlo's resolution and reports
// how much narrower the splitting confidence interval is at equal
// simulated-event budget.
//
// The figure4 experiment runs the paper's headline scaling study as one
// sharded multi-configuration sweep (internal/sweep): base and spare-OSS
// variants of every scale factor share a single worker pool with per-point
// cached models and simulators, and the result is bit-identical for any
// parallelism. With -json it emits the sweep's machine-readable report —
// per-point measures with unit-scaled confidence intervals — instead of the
// rendered figure. -json works for every experiment: stdout is exactly one
// valid JSON document (with -all, an object mapping experiment name to
// report), so the output pipes straight into jq or a plotting script.
//
// The paper_full experiment closes the measured-data loop in one run:
// generate the synthetic ABE logs, analyze them (Tables 1-4), calibrate the
// stochastic model from the analysis via internal/calibrate (Table 5 with
// per-parameter provenance), run the Figure 4/5 scaling sweep from the
// *derived* configuration, and round-trip the calibration (regenerate logs
// under the calibrated parameters, re-derive the rates). Its -json document
// extends the sweep report schema with "calibration", "tables", and
// "round_trip" sections and is bit-identical across -parallelism.
//
// Usage:
//
//	abesim -experiment figure4 [-replications 60] [-mission 8760] [-seed 1] [-quick] [-json] [-parallelism N]
//	abesim -experiment paper_full -json
//	abesim -experiment figure4 -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//	abesim -experiment rare_event_dataloss -quick
//	abesim -list
//	abesim -all -quick
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("abesim: ")

	var (
		name         = flag.String("experiment", "", "experiment to run (see -list)")
		list         = flag.Bool("list", false, "list available experiments and exit")
		all          = flag.Bool("all", false, "run every experiment")
		replications = flag.Int("replications", 0, "replications per design point (0 = default)")
		mission      = flag.Float64("mission", 0, "mission time per replication in hours (0 = one year)")
		seed         = flag.Uint64("seed", 0, "random seed (0 = default)")
		parallelism  = flag.Int("parallelism", 0, "worker goroutines per sweep or study; sweep points certify and solve on their worker (0 = GOMAXPROCS; results are bit-identical across settings)")
		quick        = flag.Bool("quick", false, "fewer replications and sweep points")
		jsonOut      = flag.Bool("json", false, "emit machine-readable JSON instead of rendered text")
		analyze      = flag.Bool("analyze", false, "statically analyze the experiment's model configurations and include the result (text, or an \"analysis\" JSON section)")
		cpuprofile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile   = flag.String("memprofile", "", "write a pprof heap profile taken after the run to this file")
	)
	flag.Parse()

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}

	opts := experiments.Options{
		Replications: *replications,
		MissionHours: *mission,
		Seed:         *seed,
		Parallelism:  *parallelism,
		Quick:        *quick,
	}

	names := []string{*name}
	if *all {
		names = experiments.Names()
	} else if *name == "" {
		flag.Usage()
		os.Exit(2)
	}

	// Profiling brackets the experiment work only (flag parsing and output
	// encoding included, process startup excluded). The profiles are written
	// on success; a failing run exits without them.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpu profile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpu profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatalf("cpu profile: %v", err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatalf("heap profile: %v", err)
			}
			// Collect garbage first so the profile shows live retained
			// memory, not whatever the last GC cycle left behind.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("heap profile: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Fatalf("heap profile: %v", err)
			}
		}()
	}

	if err := run(names, opts, *jsonOut, *analyze); err != nil {
		log.Fatal(err)
	}
}

// run executes the selected experiments. It returns instead of exiting so
// main's profile-writing defers fire on success.
func run(names []string, opts experiments.Options, jsonOut, analyze bool) error {
	// With -json, stdout is exactly one valid JSON document: the experiment's
	// report alone, or — for several experiments — an envelope object mapping
	// experiment name to report.
	envelope := make(map[string]json.RawMessage, len(names))
	for _, n := range names {
		artifact, err := experiments.RunArtifact(n, opts)
		if err != nil {
			return fmt.Errorf("experiment %q: %v", n, err)
		}
		var analysis *experiments.ExperimentAnalysis
		if analyze {
			analysis, err = experiments.AnalyzeExperiment(n, opts)
			if err != nil {
				return fmt.Errorf("experiment %q: %v", n, err)
			}
		}
		if jsonOut {
			doc, err := artifact.JSON()
			if err != nil {
				return fmt.Errorf("experiment %q: encoding JSON: %v", n, err)
			}
			if analysis != nil {
				doc, err = withAnalysis(doc, analysis)
				if err != nil {
					return fmt.Errorf("experiment %q: %v", n, err)
				}
			}
			if len(names) == 1 {
				fmt.Print(doc)
				return nil
			}
			envelope[n] = json.RawMessage(doc)
			continue
		}
		fmt.Printf("### %s\n\n%s\n", n, artifact.Render())
		if analysis != nil {
			fmt.Printf("%s\n", analysis.Render())
		}
	}
	if jsonOut {
		out, err := json.MarshalIndent(envelope, "", "  ")
		if err != nil {
			return fmt.Errorf("encoding JSON envelope: %v", err)
		}
		fmt.Println(string(out))
	}
	return nil
}

// withAnalysis splices an "analysis" section into an experiment's JSON
// report document. Decoding into a key-indexed map and re-encoding keeps
// the output one valid document with sorted keys, so reports stay
// byte-identical for identical inputs.
func withAnalysis(doc string, analysis *experiments.ExperimentAnalysis) (string, error) {
	var report map[string]json.RawMessage
	if err := json.Unmarshal([]byte(doc), &report); err != nil {
		return "", fmt.Errorf("parsing report for analysis section: %w", err)
	}
	raw, err := json.Marshal(analysis)
	if err != nil {
		return "", fmt.Errorf("encoding analysis section: %w", err)
	}
	report["analysis"] = raw
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
