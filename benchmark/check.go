package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
)

// setFile is a saved set of runs (-save): per workload, the summary of every
// end-to-end metric and ratio over the set's child runs, with the machine it
// ran on. benchmark/baseline.json holds two such sets measured at the same
// commit; -check compares against the first.
type setFile struct {
	Machine   machine             `json:"machine"`
	Workloads map[string]setStats `json:"workloads"`
}

type setStats struct {
	Seed      uint64             `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
}

type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func (s setFile) write(path string) error {
	s.Machine = machine{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: procs, Go: runtime.Version()}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// baselineFile is benchmark/baseline.json.
type baselineFile struct {
	Sets []setFile `json:"sets"`
}

// benchmarkFile is the part of BENCHMARK.json -check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict classifies a set's median against the baseline median: unresolved
// when the set's own spread is wider than the bound, else worse or better
// when the median moved by more than the bound in that direction, else same.
func verdict(base, cur summary, better string, bound float64) string {
	if cur.spread() > bound {
		return "unresolved"
	}
	change := (cur.Median - base.Median) / base.Median
	if better == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "same"
}

// checkSet compares the set saved at path with the first baseline set, for
// every end-to-end metric and workload, and fails on a "worse" verdict or a
// failed output check.
func checkSet(path, baselinePath, benchmarkPath string) error {
	var cur setFile
	var base baselineFile
	var bench benchmarkFile
	if err := readJSON(path, &cur); err != nil {
		return err
	}
	if err := readJSON(baselinePath, &base); err != nil {
		return err
	}
	if err := readJSON(benchmarkPath, &bench); err != nil {
		return err
	}
	if len(base.Sets) == 0 {
		return fmt.Errorf("%s holds no sets", baselinePath)
	}
	ref := base.Sets[0]
	var problems []string
	fmt.Printf("%-16s %-12s %12s %12s %8s %8s  %s\n", "workload", "metric", "baseline", "median", "change", "spread", "verdict")
	for _, name := range slices.Sorted(maps.Keys(cur.Workloads)) {
		st := cur.Workloads[name]
		if st.Failed > 0 {
			problems = append(problems, fmt.Sprintf("%s: %d of %d points failed the output check", name, st.Failed, st.Attempted))
		}
		bst, ok := ref.Workloads[name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: not in the baseline", name))
			continue
		}
		for _, m := range bench.EndToEnd {
			b, c := bst.Metrics[m.Name], st.Metrics[m.Name]
			v := verdict(b, c, m.Better, m.Bound)
			fmt.Printf("%-16s %-12s %12.6g %12.6g %+7.1f%% %7.1f%%  %s\n",
				name, m.Name, b.Median, c.Median, 100*(c.Median-b.Median)/b.Median, 100*c.spread(), v)
			if v == "worse" {
				problems = append(problems, fmt.Sprintf("%s %s: worse than the baseline by more than %.0f%%", name, m.Name, 100*m.Bound))
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("check failed:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}
