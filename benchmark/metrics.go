package main

import "fmt"

// metricDef declares one emitted metric. The same names, units and
// directions are declared in BENCHMARK.json; a test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of a sweep sees, measured by the parent
// around untraced child processes. None of them is ever zero.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},       // wall time of the timed call
	{"setup_s", "s", "lower"},      // child wall time minus wall_s: exec, init, inputs, output check
	{"cpu_s", "s", "lower"},        // child user+sys time
	{"alloc_mb", "MB", "lower"},    // heap bytes allocated inside the timed call
	{"peak_rss_mb", "MB", "lower"}, // child maximum resident set size
}

// runRatios are end-to-end ratios that are zero on some workload, so they
// are printed with the end-to-end table but emitted with the per-layer
// metrics, where a zero is allowed.
var runRatios = []metricDef{
	{"analytic_frac", "ratio", "higher"},  // points answered by uniformization(-approx) / points
	{"sim_events_per_s", "1/s", "higher"}, // report total_events / wall_s
	{"failed_frac", "ratio", "lower"},     // points that errored or failed the output check / points
}

// perLayer are the metrics of the traced replay, named after the repository's
// packages, plus the untraced child's runtime counters and the run ratios.
// "_s" is span self time, "_mb" bytes allocated inside the span.
var perLayer = []metricDef{
	{"abe.build_s", "s", "lower"},
	{"abe.build_mb", "MB", "lower"},
	{"abe.builds", "count", "lower"},
	{"abe.measures_s", "s", "lower"},
	{"san.compile_s", "s", "lower"},
	{"san.compile_mb", "MB", "lower"},
	{"san.fingerprint_s", "s", "lower"},
	{"san.fingerprint_mb", "MB", "lower"},
	{"statespace.certify_s", "s", "lower"},
	{"statespace.certify_mb", "MB", "lower"},
	{"statespace.refused_points", "count", "lower"},
	{"statespace.expand_s", "s", "lower"},
	{"statespace.expand_mb", "MB", "lower"},
	{"statespace.expand_calls", "count", "lower"},
	{"statespace.fit_s", "s", "lower"},
	{"statespace.fit_mb", "MB", "lower"},
	{"statespace.fit_calls", "count", "lower"},
	{"statespace.solve_s", "s", "lower"},
	{"statespace.solve_mb", "MB", "lower"},
	{"statespace.states", "count", "lower"},
	{"statespace.edges", "count", "lower"},
	{"statespace.solve_ns_per_edge", "ns", "lower"},
	{"sweep.prepass_s", "s", "lower"},
	{"sweep.prepass_wasted_frac", "ratio", "lower"},
	{"sweep.cache_hits", "count", "higher"},
	{"sweep.cache_misses", "count", "lower"},
	{"san.sim_s", "s", "lower"},
	{"san.sim_mb", "MB", "lower"},
	{"san.sim_events", "count", "lower"},
	{"san.sim_reps", "count", "lower"},
	{"san.sim_ns_per_event", "ns", "lower"},
	{"report.json_s", "s", "lower"},
	{"report.json_mb", "MB", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"trace.replay_s", "s", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.spans", "count", "lower"},
	{"analytic_frac", "ratio", "higher"},
	{"sim_events_per_s", "1/s", "higher"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit selects the declared metrics from values; every one must be there.
func emit(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
