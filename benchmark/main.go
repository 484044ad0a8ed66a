// Command benchmark is the end-to-end benchmark of the sweep engine: it runs
// each workload as a closed loop of fresh child processes (one sweep at a
// time, GOMAXPROCS=2), checks every run's report against committed
// references, and reports wall time, set-up time, CPU time, allocations and
// peak memory as medians with quartiles. With -trace 1 it instead replays
// each workload through the public function of every layer with a span
// around each call and reports the per-layer split.
//
// Run it from the repository root:
//
//	go run ./benchmark                              # one set over every workload
//	go run ./benchmark -workload figure4 -seconds 30
//	go run ./benchmark -trace 1                     # per-layer replay
//	go run ./benchmark -save set.json && go run ./benchmark -check set.json
//	go run ./benchmark -write-refs                  # regenerate testdata/
//
// With -workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// maxRun caps one invocation: no child starts that would likely end past it.
const maxRun = 170 * time.Second

// spansDir is where the traced run writes <workload>.spans.json.
var spansDir = filepath.Join("benchmark", "out")

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type config struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	save      string
	check     string
	writeRefs bool
	child     string
}

func run(args []string) error {
	var c config
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "run one workload (default: every workload)")
	fs.Uint64Var(&c.seed, "seed", 1, "input seed (0 means 1)")
	fs.IntVar(&c.seconds, "seconds", 0, "time-box the closed loop to this many seconds (0: each workload's fixed run count)")
	fs.IntVar(&c.trace, "trace", 0, "1: replay with per-layer spans instead of measuring end to end")
	fs.StringVar(&c.save, "save", "", "write the set's summaries to this file")
	fs.StringVar(&c.check, "check", "", "compare a saved set with benchmark/baseline.json and exit non-zero on a regression")
	fs.BoolVar(&c.writeRefs, "write-refs", false, "regenerate benchmark/testdata from seed-1 runs")
	fs.StringVar(&c.child, "child", "", "internal: run one measured child (run|replay)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if c.seed == 0 {
		c.seed = 1
	}
	switch {
	case c.child != "":
		return runChild(c)
	case c.check != "":
		return checkSet(c.check, filepath.Join("benchmark", "baseline.json"), "BENCHMARK.json")
	case c.writeRefs:
		for _, w := range workloads {
			if err := writeReference(filepath.Join("benchmark", "testdata"), w); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
		}
		return nil
	}
	if c.trace != 0 && c.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", c.trace)
	}
	if c.trace == 1 && c.save != "" {
		return errors.New("-save records end-to-end sets; it does not apply to -trace 1")
	}

	selected := workloads
	if c.workload != "" {
		w, err := findWorkload(c.workload)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	set := setFile{Workloads: map[string]setStats{}}
	var last result
	correct := true
	for _, w := range selected {
		var err error
		if c.trace == 1 {
			last, err = traceWorkload(c, w)
		} else {
			var st setStats
			st, last, err = measureWorkload(c, w)
			set.Workloads[w.name] = st
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		correct = correct && last.Correct
	}
	if c.save != "" {
		if err := set.write(c.save); err != nil {
			return err
		}
	}
	if c.workload != "" {
		b, err := json.Marshal(last)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	if !correct {
		return errors.New("output check failed")
	}
	return nil
}

// result is the last line a single-workload invocation prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// childOutput is the JSON line a child prints.
type childOutput struct {
	checked
	WallS      float64            `json:"wall_s"`
	AllocBytes uint64             `json:"alloc_bytes"`
	GCCPUS     float64            `json:"gc_cpu_s"`
	GCCycles   uint64             `json:"gc_cycles"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

// sample is one child run as the parent measured it.
type sample struct {
	out      childOutput
	elapsed  time.Duration
	cpuS     float64
	maxRSSMB float64
}

// values are the run's end-to-end metrics and ratios.
func (s sample) values() map[string]float64 {
	o := s.out
	return map[string]float64{
		"wall_s":           o.WallS,
		"setup_s":          s.elapsed.Seconds() - o.WallS,
		"cpu_s":            s.cpuS,
		"alloc_mb":         float64(o.AllocBytes) / 1e6,
		"peak_rss_mb":      s.maxRSSMB,
		"analytic_frac":    ratio(float64(o.Analytic), float64(o.Points)),
		"sim_events_per_s": ratio(float64(o.Events), o.WallS),
		"failed_frac":      ratio(float64(o.Failed), float64(o.Points)),
	}
}

// spawn runs one child of this binary with GOMAXPROCS=procs and returns
// what it printed and what the kernel says it cost.
func spawn(c config, mode string, w workload) (sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return sample{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), maxRun)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", w.name,
		"-seed", strconv.FormatUint(c.seed, 10))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	err = cmd.Run()
	elapsed := time.Since(start)
	if err != nil {
		return sample{}, fmt.Errorf("%s child: %w", mode, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var out childOutput
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return sample{}, fmt.Errorf("%s child output: %w", mode, err)
	}
	for _, f := range out.Failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s: output check: %s\n", w.name, f)
	}
	s := sample{out: out, elapsed: elapsed}
	s.cpuS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.maxRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
	}
	return s, nil
}

// measureWorkload runs the closed loop: one child after another, for
// c.seconds when set, else for w.runs children. It prints the summary table
// and returns the set's statistics and the result line.
func measureWorkload(c config, w workload) (setStats, result, error) {
	start := time.Now()
	var samples []sample
	for {
		t0 := time.Now()
		s, err := spawn(c, "run", w)
		if err != nil {
			return setStats{}, result{}, err
		}
		samples = append(samples, s)
		if c.seconds > 0 {
			el := time.Since(start)
			if el >= time.Duration(c.seconds)*time.Second || el+time.Since(t0) > maxRun {
				break
			}
		} else if len(samples) >= w.runs {
			break
		}
	}

	st := setStats{Seed: c.seed, Metrics: map[string]summary{}}
	for _, s := range samples {
		st.Attempted += s.out.Points
		st.Failed += s.out.Failed
	}
	medians := map[string]float64{}
	fmt.Printf("%s (seed %d, %d runs, closed loop, GOMAXPROCS=%d)\n", w.name, c.seed, len(samples), procs)
	fmt.Printf("  %-18s %-6s %14s %14s %14s %3s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, d := range append(append([]metricDef(nil), endToEnd...), runRatios...) {
		vals := make([]float64, len(samples))
		for i, s := range samples {
			vals[i] = s.values()[d.Name]
		}
		sm := summarize(vals)
		st.Metrics[d.Name] = sm
		medians[d.Name] = sm.Median
		fmt.Printf("  %-18s %-6s %14.6g %14.6g %14.6g %3d\n", d.Name, d.Unit, sm.Median, sm.Q1, sm.Q3, sm.N)
	}
	metrics, err := emit(endToEnd, medians)
	return st, result{
		Correct:   st.Failed == 0,
		Attempted: st.Attempted,
		Failed:    st.Failed,
		Metrics:   metrics,
	}, err
}

// traceWorkload runs one untraced child and one replay child, checks that
// the replay reproduced the sweep's report, and prints the per-layer table.
func traceWorkload(c config, w workload) (result, error) {
	plain, err := spawn(c, "run", w)
	if err != nil {
		return result{}, err
	}
	traced, err := spawn(c, "replay", w)
	if err != nil {
		return result{}, err
	}
	if err := drift(plain.out.checked, traced.out.checked); err != nil {
		return result{}, err
	}
	m := traceMetrics(traced.out.Layers, plain)
	metrics, err := emit(perLayer, m)
	if err != nil {
		return result{}, err
	}

	fmt.Printf("%s traced replay (seed %d, GOMAXPROCS=%d; trace.overhead_frac is computed, not measured)\n", w.name, c.seed, procs)
	for _, d := range perLayer {
		fmt.Printf("  %-30s %14.6g %s\n", d.Name, m[d.Name], d.Unit)
	}
	failed := plain.out.Failed + traced.out.Failed
	return result{
		Correct:   failed == 0,
		Attempted: plain.out.Points + traced.out.Points,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

// traceMetrics adds the untraced run's runtime counters and ratios to the
// replay's layer metrics.
func traceMetrics(layers map[string]float64, plain sample) map[string]float64 {
	m := maps.Clone(layers)
	v := plain.values()
	m["runtime.gc_cpu_s"] = plain.out.GCCPUS
	m["runtime.gc_cycles"] = float64(plain.out.GCCycles)
	m["analytic_frac"] = v["analytic_frac"]
	m["sim_events_per_s"] = v["sim_events_per_s"]
	return m
}

// drift fails when the replay's report differs from the sweep's.
func drift(sweepRun, replayRun checked) error {
	if sweepRun.Digest == replayRun.Digest {
		return nil
	}
	for i := range max(len(sweepRun.PointDigests), len(replayRun.PointDigests)) {
		var s, r string
		if i < len(sweepRun.PointDigests) {
			s = sweepRun.PointDigests[i]
		}
		if i < len(replayRun.PointDigests) {
			r = replayRun.PointDigests[i]
		}
		if s != r {
			return fmt.Errorf("replay drifted from sweep: point %d: replay %q, sweep %q", i, r, s)
		}
	}
	return fmt.Errorf("replay drifted from sweep: total_events %d, sweep %d", replayRun.Events, sweepRun.Events)
}

// runChild is the measured process: it builds the inputs, times the
// workload's call (or its traced replay), checks the report, and prints one
// JSON line.
func runChild(c config) error {
	w, err := findWorkload(c.workload)
	if err != nil {
		return err
	}
	ref, err := loadReference(w.name)
	if err != nil {
		return err
	}
	var out childOutput
	var report string
	switch c.child {
	case "run":
		calls := w.calls(c.seed)
		rt := []metrics.Sample{{Name: allocsMetric}, {Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
		before := make([]metrics.Sample, len(rt))
		copy(before, rt)
		metrics.Read(before)
		start := time.Now()
		report, err = w.run(c.seed, calls)
		out.WallS = time.Since(start).Seconds()
		metrics.Read(rt)
		out.AllocBytes = rt[0].Value.Uint64() - before[0].Value.Uint64()
		out.GCCPUS = rt[1].Value.Float64() - before[1].Value.Float64()
		out.GCCycles = rt[2].Value.Uint64() - before[2].Value.Uint64()
	case "replay":
		perSpan := spanCost(10000)
		t := newTracer(w.name)
		start := time.Now()
		report, err = replay(t, w, c.seed)
		replayS := time.Since(start).Seconds()
		out.WallS = replayS
		out.Layers = layerMetrics(t, replayS, perSpan)
		if err == nil {
			err = writeSpans(filepath.Join(spansDir, w.name+".spans.json"), t.spans)
		}
	default:
		return fmt.Errorf("unknown child mode %q", c.child)
	}
	if err != nil {
		return err
	}
	if out.checked, err = checkReport(report, ref, c.seed); err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
