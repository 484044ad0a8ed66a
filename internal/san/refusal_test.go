package san

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dist"
)

// TestExpansionCandidate pins the candidate test the certification cascade
// skips its expansion retry by: fixed delays with an exact finite phase
// form that are not memoryless as written are candidates; memoryless,
// phase-less and marking-dependent delays are not.
func TestExpansionCandidate(t *testing.T) {
	sum, err := dist.NewSum(mustExpRate(t, 1), mustExpRate(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	gamma1, err := dist.NewGamma(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel("candidates")
	accept := map[string]int{ // activity -> stage count
		"erlang": 3,
		"sum":    2,
		"gamma1": 1,
	}
	m.AddTimedActivity("erlang", mustErlang(t, 3, 0.5))
	m.AddTimedActivity("sum", sum)
	m.AddTimedActivity("gamma1", gamma1)
	m.AddTimedActivity("weibull", mustWeibull(t, 1.5, 100))
	m.AddTimedActivity("uniform", mustUniform(t, 1, 2))
	m.AddTimedActivity("timer", mustDet(t, 5))
	m.AddTimedActivity("exponential", mustExpRate(t, 1))
	erlang := mustErlang(t, 2, 1)
	m.AddTimedActivityFunc("marking-dependent", func(MarkingReader) dist.Distribution { return erlang })
	m.AddInstantaneousActivity("instantaneous")
	for _, a := range m.Activities() {
		rates, ok := ExpansionCandidate(a)
		if want, isCandidate := accept[a.Name()]; ok != isCandidate || len(rates) != want {
			t.Errorf("%s: candidate %v with %d stages, want %v with %d", a.Name(), ok, len(rates), isCandidate, want)
		}
	}
}

// TestExpandPhasesGroupsRefusals pins the grouping of the expansion pass's
// refusals on a nested replicated fixture: one line per replicate pattern
// and reason, in the order of each group's first activity; an activity
// whose reason differs from its instances' splits off and, alone, keeps its
// own name; an activity outside every group keeps its line.
func TestExpandPhasesGroupsRefusals(t *testing.T) {
	uniform, timer5, timer7 := mustUniform(t, 1, 2), mustDet(t, 5), mustDet(t, 7)
	m := NewModel("nested-farm")
	err := Replicate(m, "farm", 2, func(m *Model, farm string, i int) error {
		return Replicate(m, Qualify(farm, "disk"), 3, func(m *Model, disk string, j int) error {
			up := m.AddPlace(Qualify(disk, "up"), 1)
			down := m.AddPlace(Qualify(disk, "down"), 0)
			replace := timer5
			if i == 1 && j == 2 {
				replace = timer7
			}
			m.AddTimedActivity(Qualify(disk, "fail"), uniform).AddInputArc(up, 1).AddOutputArc(down, 1)
			m.AddTimedActivity(Qualify(disk, "replace"), replace).AddInputArc(down, 1).AddOutputArc(up, 1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	m.AddTimedActivity("switch", uniform)
	_, rep, err := ExpandPhases(m)
	if err != nil {
		t.Fatal(err)
	}
	line := func(count, name string, d dist.Distribution) string {
		return fmt.Sprintf("%s: %sactivity %q: %s has no exact finite phase-type form", RefusalNonExpandable, count, name, dist.Describe(d))
	}
	want := []string{
		line("6 × ", "farm[*]/disk[*]/fail", uniform),
		line("5 × ", "farm[*]/disk[*]/replace", timer5),
		line("", "farm[1]/disk[2]/replace", timer7),
		line("", "switch", uniform),
	}
	if !slices.Equal(rep.Refusals, want) {
		t.Errorf("refusals\n%q\nwant\n%q", rep.Refusals, want)
	}
}
