package sweep

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/abe"
	"repro/internal/san"
)

// cachePoints mixes duplicate analytic configurations (MiniExponential
// certifies and solves) with a simulated point, so one sweep exercises the
// miss, hit, and refusal paths of the solve cache at once.
func cachePoints() []Point {
	return []Point{
		{Label: "mini-a", Config: abe.MiniExponential()},
		{Label: "abe-sim", Config: abe.ABE()},
		{Label: "mini-b", Config: abe.MiniExponential()},
		{Label: "mini-c", Config: abe.MiniExponential()},
	}
}

// solverCaches unmarshals the per-point solver cache labels from a sweep's
// JSON report.
func solverCaches(t *testing.T, res *Result) []string {
	t.Helper()
	text, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Points []struct {
			Solver struct {
				Method string `json:"method"`
				Cache  string `json:"cache"`
			} `json:"solver"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(text), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	labels := make([]string, len(doc.Points))
	for i, p := range doc.Points {
		labels[i] = p.Solver.Cache
	}
	return labels
}

func TestSweepCacheLabelsDuplicatePoints(t *testing.T) {
	res, err := Run(cachePoints(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The first holder of each configuration is the miss; later duplicates
	// are hits. The refused ABE point is computed (and cached) too.
	want := []string{CacheMiss, CacheMiss, CacheHit, CacheHit}
	got := make([]string, len(res.Points))
	for i, pt := range res.Points {
		got[i] = pt.Solver.Cache
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cache labels = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(solverCaches(t, res), want) {
		t.Errorf("JSON cache labels = %v, want %v", solverCaches(t, res), want)
	}
	// A hit shares the miss's exact outcome: identical method, certificate,
	// and (seed aside) identical exact measures.
	a, b, c := res.Points[0], res.Points[2], res.Points[3]
	for _, dup := range []PointResult{b, c} {
		if dup.Solver.Method != a.Solver.Method {
			t.Errorf("duplicate point method %q != %q", dup.Solver.Method, a.Solver.Method)
		}
		if !reflect.DeepEqual(dup.Measures, a.Measures) {
			t.Errorf("duplicate point measures differ:\n%+v\n%+v", dup.Measures, a.Measures)
		}
	}
	if a.Solver.Method != MethodUniformization {
		t.Errorf("MiniExponential method = %q, want uniformization", a.Solver.Method)
	}
	if res.Points[1].Solver.Method != MethodSimulation {
		t.Errorf("ABE point method = %q, want simulation", res.Points[1].Solver.Method)
	}
}

func TestSweepCacheBitIdenticalAcrossParallelism(t *testing.T) {
	opts := testOpts()
	opts.Parallelism = 1
	seq, err := Run(cachePoints(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 4
	par, err := Run(cachePoints(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Points, par.Points) {
		t.Error("cached sweep results differ across Parallelism")
	}
	seqJSON, err := seq.JSON()
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := par.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if seqJSON != parJSON {
		t.Error("cached sweep JSON differs across Parallelism")
	}
}

func TestSweepCacheForceSimulationUnlabeled(t *testing.T) {
	points := []Point{
		{Label: "analytic", Config: abe.MiniExponential()},
		{Label: "forced", Config: abe.MiniExponential(), ForceSimulation: true},
	}
	res, err := Run(points, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Points[0].Solver.Cache; got != CacheMiss {
		t.Errorf("analytic point cache = %q, want miss", got)
	}
	// A forced point does no cacheable solver work: no label in the result
	// and no cache field in its JSON (omitempty).
	if got := res.Points[1].Solver.Cache; got != "" {
		t.Errorf("forced point cache = %q, want empty", got)
	}
	if labels := solverCaches(t, res); labels[1] != "" {
		t.Errorf("forced point JSON cache = %q, want absent", labels[1])
	}
}

// TestSweepCacheKey pins what the solve cache keys on: the point's
// abe.Config value within one Run. Labels and seeds are not part of the key,
// the configuration's Name is, a forced point takes no entry, and the fit
// tolerance — fixed for the whole Run — still selects the cascade.
func TestSweepCacheKey(t *testing.T) {
	renamed := abe.MiniExponential()
	renamed.Name += " (renamed)"
	fit := testOpts()
	fit.PHFitTolerance = 0.1
	cases := []struct {
		name    string
		points  []Point
		opts    san.Options
		cache   []string
		methods []string
	}{
		{
			name: "same config under another label and seed hits",
			points: []Point{
				{Label: "a", Config: abe.MiniExponential()},
				{Label: "b", Config: abe.MiniExponential(), Seed: 99},
			},
			opts:    testOpts(),
			cache:   []string{CacheMiss, CacheHit},
			methods: []string{MethodUniformization, MethodUniformization},
		},
		{
			name:    "config differing only in Name misses",
			points:  []Point{{Config: abe.MiniExponential()}, {Config: renamed}},
			opts:    testOpts(),
			cache:   []string{CacheMiss, CacheMiss},
			methods: []string{MethodUniformization, MethodUniformization},
		},
		{
			name: "forced twin gets no label",
			points: []Point{
				{Label: "twin", Config: abe.MiniExponential(), ForceSimulation: true},
				{Label: "analytic", Config: abe.MiniExponential()},
				{Label: "twin again", Config: abe.MiniExponential(), ForceSimulation: true},
			},
			opts:    testOpts(),
			cache:   []string{"", CacheMiss, ""},
			methods: []string{MethodSimulation, MethodUniformization, MethodSimulation},
		},
		{
			name:    "plain cascade simulates MiniWeibull",
			points:  []Point{{Config: abe.MiniWeibull()}},
			opts:    testOpts(),
			cache:   []string{CacheMiss},
			methods: []string{MethodSimulation},
		},
		{
			name:    "fit tolerance answers MiniWeibull approximately",
			points:  []Point{{Config: abe.MiniWeibull()}},
			opts:    fit,
			cache:   []string{CacheMiss},
			methods: []string{MethodUniformizationApprox},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.points, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			cache := make([]string, len(res.Points))
			methods := make([]string, len(res.Points))
			for i, pt := range res.Points {
				cache[i], methods[i] = pt.Solver.Cache, pt.Solver.Method
			}
			if !reflect.DeepEqual(cache, tc.cache) {
				t.Errorf("cache labels = %q, want %q", cache, tc.cache)
			}
			if !reflect.DeepEqual(solverCaches(t, res), tc.cache) {
				t.Errorf("JSON cache labels = %q, want %q", solverCaches(t, res), tc.cache)
			}
			if !reflect.DeepEqual(methods, tc.methods) {
				t.Errorf("methods = %q, want %q", methods, tc.methods)
			}
			// A hit shares the exact outcome of the first unforced point with
			// its configuration: the same certificate object and, the label
			// aside, the same solver record and measures.
			for i, pt := range res.Points {
				if pt.Solver.Cache != CacheHit {
					continue
				}
				first := res.Points[slices.IndexFunc(tc.points, func(p Point) bool {
					return !p.ForceSimulation && p.Config == tc.points[i].Config
				})]
				if pt.Solver.Certificate != first.Solver.Certificate {
					t.Errorf("point %d: hit does not share the miss's certificate", i)
				}
				hit, miss := pt.Solver, first.Solver
				hit.Cache, miss.Cache = "", ""
				if !reflect.DeepEqual(hit, miss) || !reflect.DeepEqual(pt.Measures, first.Measures) {
					t.Errorf("point %d: hit differs from its miss", i)
				}
			}
		})
	}
}

// TestConfigIsPlainComparableValue pins what the solve-cache key relies on:
// abe.Config holds only numbers, bools, strings, and structs and arrays of
// them. A slice, map or func field would stop the map key compiling; an
// interface, pointer, chan or unsafe pointer field would compile, then
// panic at run time or compare by identity.
func TestConfigIsPlainComparableValue(t *testing.T) {
	if bad := referenceFields(reflect.TypeOf(abe.Config{}), "Config"); len(bad) > 0 {
		t.Fatalf("abe.Config is no longer a plain value: %v", bad)
	}
	// The walk itself must reach through nested structs and arrays.
	type inner struct {
		OK [3]int
		S  []int
		P  *int
	}
	type fixture struct {
		OK     float64
		Nested inner
		Arr    [2]struct{ M map[string]int }
		F      func()
		C      chan int
		I      any
		U      unsafe.Pointer
	}
	want := []string{
		"fixture.Nested.S (slice)", "fixture.Nested.P (ptr)", "fixture.Arr[].M (map)",
		"fixture.F (func)", "fixture.C (chan)", "fixture.I (interface)", "fixture.U (unsafe.Pointer)",
	}
	if got := referenceFields(reflect.TypeOf(fixture{}), "fixture"); !reflect.DeepEqual(got, want) {
		t.Fatalf("referenceFields(fixture) = %q, want %q", got, want)
	}
}

// referenceFields lists the path of every field under t, through nested
// structs and arrays, whose kind is not a plain value.
func referenceFields(t reflect.Type, path string) []string {
	switch t.Kind() {
	case reflect.Struct:
		var out []string
		for i := range t.NumField() {
			f := t.Field(i)
			out = append(out, referenceFields(f.Type, path+"."+f.Name)...)
		}
		return out
	case reflect.Array:
		return referenceFields(t.Elem(), path+"[]")
	case reflect.Slice, reflect.Map, reflect.Func, reflect.Chan,
		reflect.Interface, reflect.Pointer, reflect.UnsafePointer:
		return []string{path + " (" + t.Kind().String() + ")"}
	}
	return nil
}
