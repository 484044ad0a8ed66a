package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/sweep"
)

// References are the seed-1 reports of every workload, reduced to what the
// output check compares: per point the label, the solver method and cache
// label, and the headline measures. `-write-refs` regenerates them.
//
//go:embed testdata/*.json
var refFiles embed.FS

const (
	refSeed = 1
	// analyticTol is the absolute tolerance on analytic measures, the
	// solver's own pin against closed forms.
	analyticTol = 1e-8
)

type reference struct {
	Workload    string     `json:"workload"`
	Seed        uint64     `json:"seed"`
	TotalEvents uint64     `json:"total_events"`
	Points      []refPoint `json:"points"`
}

type refPoint struct {
	Label    string             `json:"label"`
	Method   string             `json:"method"`
	Cache    string             `json:"cache,omitempty"`
	Measures map[string]float64 `json:"measures"`
}

func headline(p sweep.ReportPoint) map[string]float64 {
	return map[string]float64{
		"storage_availability":         p.StorageAvailability,
		"cfs_availability":             p.CFSAvailability,
		"cluster_utility":              p.ClusterUtility,
		"disk_replacements_per_week":   p.DiskReplacementsPerWeek,
		"lost_jobs_transient_per_year": p.LostJobsTransientPerYear,
		"lost_jobs_cfs_per_year":       p.LostJobsCFSPerYear,
	}
}

func analytic(method string) bool { return strings.HasPrefix(method, sweep.MethodUniformization) }

// referenceOf reduces a report to its reference.
func referenceOf(workload string, seed uint64, rep sweep.Report) reference {
	ref := reference{Workload: workload, Seed: seed, TotalEvents: rep.TotalEvents}
	for _, p := range rep.Points {
		ref.Points = append(ref.Points, refPoint{Label: p.Label, Method: p.Solver.Method, Cache: p.Solver.Cache, Measures: headline(p)})
	}
	return ref
}

func loadReference(workload string) (reference, error) {
	var ref reference
	b, err := refFiles.ReadFile("testdata/" + workload + ".json")
	if err != nil {
		return ref, fmt.Errorf("no reference for %s (run -write-refs): %w", workload, err)
	}
	if err := json.Unmarshal(b, &ref); err != nil {
		return ref, fmt.Errorf("reference %s: %w", workload, err)
	}
	return ref, nil
}

// writeReference regenerates one workload's reference file under dir.
func writeReference(dir string, w workload) error {
	out, err := w.run(refSeed, w.calls(refSeed))
	if err != nil {
		return err
	}
	var rep sweep.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		return err
	}
	b, err := json.MarshalIndent(referenceOf(w.name, refSeed, rep), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, w.name+".json"), append(b, '\n'), 0o644)
}

// checked is what the output check learned about one report.
type checked struct {
	Points   int      `json:"points"`
	Analytic int      `json:"analytic"`
	Events   uint64   `json:"events"`
	Failed   int      `json:"failed"`
	Failures []string `json:"failures,omitempty"`
	// Digest is the report's SHA-256 and PointDigests one line per point,
	// so two reports can be compared point by point.
	Digest       string   `json:"report_sha256"`
	PointDigests []string `json:"point_digests"`
}

// checkReport compares a report with the workload's reference. Labels,
// methods, cache labels and analytic measures (within analyticTol) must
// match at every seed; at the reference seed the simulated measures and the
// event total must match bit for bit as well. A point that differs counts
// as failed.
func checkReport(report string, ref reference, seed uint64) (checked, error) {
	var rep sweep.Report
	if err := json.Unmarshal([]byte(report), &rep); err != nil {
		return checked{}, fmt.Errorf("report: %w", err)
	}
	sum := sha256.Sum256([]byte(report))
	c := checked{Points: len(rep.Points), Events: rep.TotalEvents, Digest: hex.EncodeToString(sum[:])}
	exact := seed == ref.Seed
	fail := func(format string, args ...any) {
		c.Failed++
		c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
	}
	for i, p := range rep.Points {
		b, err := json.Marshal(p)
		if err != nil {
			return checked{}, err
		}
		ps := sha256.Sum256(b)
		c.PointDigests = append(c.PointDigests, fmt.Sprintf("%s %s %x", p.Label, p.Solver.Method, ps[:8]))
		if analytic(p.Solver.Method) {
			c.Analytic++
		}
		if i >= len(ref.Points) {
			fail("point %d (%s): not in the reference", i, p.Label)
			continue
		}
		if msg := comparePoint(p, ref.Points[i], exact); msg != "" {
			fail("point %d (%s): %s", i, p.Label, msg)
		}
	}
	for i := len(rep.Points); i < len(ref.Points); i++ {
		fail("point %d (%s): missing from the report", i, ref.Points[i].Label)
	}
	if exact && c.Failed == 0 && rep.TotalEvents != ref.TotalEvents {
		fail("total_events %d, reference %d", rep.TotalEvents, ref.TotalEvents)
	}
	return c, nil
}

func comparePoint(p sweep.ReportPoint, want refPoint, exact bool) string {
	if p.Label != want.Label || p.Solver.Method != want.Method || p.Solver.Cache != want.Cache {
		return fmt.Sprintf("label/method/cache %q/%s/%s, reference %q/%s/%s",
			p.Label, p.Solver.Method, p.Solver.Cache, want.Label, want.Method, want.Cache)
	}
	isAnalytic := analytic(p.Solver.Method)
	if !isAnalytic && !exact {
		return ""
	}
	got := headline(p)
	for _, name := range slices.Sorted(maps.Keys(want.Measures)) {
		g, w := got[name], want.Measures[name]
		if isAnalytic && !(math.Abs(g-w) <= analyticTol) {
			return fmt.Sprintf("%s = %v, reference %v (tolerance %g)", name, g, w, analyticTol)
		}
		if !isAnalytic && math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("%s = %v, reference %v (must be bit-identical)", name, g, w)
		}
	}
	return ""
}
