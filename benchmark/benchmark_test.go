package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"repro/internal/abe"
	"repro/internal/san"
	"repro/internal/sweep"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(values, n=4).
	cases := []struct {
		values         []float64
		median, q1, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 4.5},
		{[]float64{1.5, 2.25, 9, 4, 7, 1, 0.5}, 2.25, 1, 7},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 55, 27.5, 82.5},
	}
	for _, c := range cases {
		s := summarize(c.values)
		if s.N != len(c.values) || s.Median != c.median || math.Abs(s.Q1-c.q1) > 1e-12 || math.Abs(s.Q3-c.q3) > 1e-12 {
			t.Errorf("summarize(%v) = n %d median %v q1 %v q3 %v, want %v %v %v", c.values, s.N, s.Median, s.Q1, s.Q3, c.median, c.q1, c.q3)
		}
	}
	if got := summarize([]float64{90, 100, 110}).spread(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %v, want 0.2", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100, AllocBytes: 1000},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40, AllocBytes: 300},
		{ID: 3, Parent: 2, StartNS: 15, EndNS: 20, AllocBytes: 50},
		{ID: 4, Parent: 1, StartNS: 30, EndNS: 60, AllocBytes: 200}, // overlaps span 2
		{ID: 5, Parent: 1, StartNS: 90, EndNS: 120},                 // clipped at 100
		{ID: 6, StartNS: 200, EndNS: 230, AllocBytes: 7},            // a second root
	}
	self, alloc := selfTimes(spans)
	wantSelf := []int64{100 - 50 - 10, 30 - 5, 5, 30, 30, 30}
	wantAlloc := []int64{1000 - 300 - 200, 300 - 50, 50, 200, 0, 7}
	for i := range spans {
		if self[i] != wantSelf[i] || alloc[i] != wantAlloc[i] {
			t.Errorf("span %d: self %d ns %d B, want %d ns %d B", spans[i].ID, self[i], alloc[i], wantSelf[i], wantAlloc[i])
		}
	}
}

func TestVerdict(t *testing.T) {
	base := summarize([]float64{10, 10, 10})
	cases := []struct {
		values []float64
		better string
		want   string
	}{
		{[]float64{10.5, 10.5, 10.5}, "lower", "same"},
		{[]float64{12, 12, 12}, "lower", "worse"},
		{[]float64{8, 8, 8}, "lower", "better"},
		{[]float64{8, 8, 8}, "higher", "worse"},
		{[]float64{8, 10, 12}, "lower", "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(base, summarize(c.values), c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.values, c.better, got, c.want)
		}
	}
}

// TestDeclaredNamesMatchBenchmarkJSON keeps the emitted metrics and
// workloads equal to the ones BENCHMARK.json declares.
func TestDeclaredNamesMatchBenchmarkJSON(t *testing.T) {
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, d := range runRatios {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("malformed ratio %+v", d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("malformed metric %+v", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// miniWorkload is the sweep the replay tests use: an analytic point, its
// forced-simulation twin, and a point answered through phase expansion.
func miniWorkload() workload {
	return workload{name: "mini", calls: func(seed uint64) []sweepCall {
		exp := abe.MiniExponential()
		points := []sweep.Point{
			{Config: exp, Seed: seed},
			{Label: exp.Name + " [twin]", Config: exp, Seed: seed, ForceSimulation: true},
			{Config: abe.MiniErlang(), Seed: seed},
		}
		return []sweepCall{{points: points, opts: san.Options{Mission: 2190, Replications: 4, Seed: seed, Parallelism: procs}}}
	}}
}

// TestReplayMatchesSweep pins the traced replay to sweep.Run: the same
// report byte for byte, so drift fails here before it fails a traced run.
func TestReplayMatchesSweep(t *testing.T) {
	w := miniWorkload()
	want, err := w.run(3, w.calls(3))
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(w.name)
	got, err := replay(tr, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("replay drifted from sweep:\nreplay %s\nsweep  %s", got, want)
	}

	layers := layerMetrics(tr, 1, spanCost(100))
	m := traceMetrics(layers, sample{out: childOutput{WallS: 1}})
	out, err := emit(perLayer, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(perLayer) {
		t.Fatalf("emitted %d per-layer metrics, declared %d", len(out), len(perLayer))
	}
	for name, want := range map[string]float64{
		"sweep.cache_misses": 2, "statespace.expand_calls": 1, "statespace.refused_points": 0,
		"san.sim_reps": 4, "abe.builds": 3 + 1 + 2*3, // point builds, expansion rebuild, model_stats
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
}

// TestCheckReport checks the output check against a reference made from the
// same report: analytic points are compared at every seed, simulated points
// bit for bit only at the reference seed.
func TestCheckReport(t *testing.T) {
	w := miniWorkload()
	report, err := w.run(3, w.calls(3))
	if err != nil {
		t.Fatal(err)
	}
	var rep sweep.Report
	if err := json.Unmarshal([]byte(report), &rep); err != nil {
		t.Fatal(err)
	}
	ref := referenceOf(w.name, 3, rep)
	c, err := checkReport(report, ref, 3)
	if err != nil || c.Failed != 0 || c.Points != 3 || c.Analytic != 2 {
		t.Fatalf("self-check: %+v, %v", c, err)
	}

	ref.Points[1].Measures["cfs_availability"] += 1e-12 // the simulated twin
	if c, _ := checkReport(report, ref, 3); c.Failed != 1 {
		t.Errorf("simulated point off by 1e-12 at the reference seed: %d failed, want 1", c.Failed)
	}
	if c, _ := checkReport(report, ref, 4); c.Failed != 0 {
		t.Errorf("simulated point at another seed: %d failed, want 0", c.Failed)
	}
	ref.Points[0].Measures["cfs_availability"] += 1e-6 // the analytic point
	if c, _ := checkReport(report, ref, 4); c.Failed != 1 {
		t.Errorf("analytic point off by 1e-6 at another seed: %d failed, want 1", c.Failed)
	}
	ref.Points = ref.Points[:2]
	if c, _ := checkReport(report, ref, 4); c.Failed != 2 {
		t.Errorf("extra report point: %d failed, want 2", c.Failed)
	}
}

func TestReferencesCoverEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		ref, err := loadReference(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Workload != w.name || ref.Seed != refSeed || len(ref.Points) == 0 {
			t.Errorf("%s: reference for %q at seed %d with %d points", w.name, ref.Workload, ref.Seed, len(ref.Points))
		}
	}
}
