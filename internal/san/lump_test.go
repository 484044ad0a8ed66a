package san

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
)

// twoStateClass returns the canonical fail/repair replica class: up replicas
// fail at 1/mttf, down replicas repair at 1/mttr, and a shared counter
// place tracks the failed population.
func twoStateClass(t testing.TB, mttf, mttr float64, downCounter *Place) ReplicaClass {
	t.Helper()
	return ReplicaClass{
		States:  []string{"up", "down"},
		Initial: "up",
		Transitions: []ReplicaTransition{
			{
				Name: "fail", From: "up", To: "down", Delay: mustExp(t, mttf),
				Effect: func(mw MarkingWriter) { mw.Add(downCounter, 1) },
			},
			{
				Name: "repair", From: "down", To: "up", Delay: mustExp(t, mttr),
				Effect: func(mw MarkingWriter) { mw.Add(downCounter, -1) },
			},
		},
	}
}

func TestReplicateLumpedEdgeCases(t *testing.T) {
	freshClass := func(m *Model) ReplicaClass {
		counter := m.AddPlace("counter", 0)
		return twoStateClass(t, 100, 10, counter)
	}

	// n <= 0 is rejected rather than silently building an empty population.
	for _, n := range []int{0, -3} {
		m := NewModel("lump-n")
		if _, err := ReplicateLumped(m, "c", n, freshClass(m)); !errors.Is(err, ErrNotLumpable) {
			t.Errorf("ReplicateLumped(n=%d) error = %v, want ErrNotLumpable", n, err)
		}
	}

	// Duplicate prefixes collide on the counting-place names.
	m := NewModel("lump-dup")
	class := freshClass(m)
	if _, err := ReplicateLumped(m, "c", 4, class); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplicateLumped(m, "c", 4, class); !errors.Is(err, ErrDuplicatePlace) {
		t.Errorf("duplicate prefix error = %v, want ErrDuplicatePlace", err)
	}

	// A non-exponential transition must error, not silently mis-lump: the
	// count x rate aggregation is only exact for memoryless delays.
	uni, err := dist.NewUniform(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewModel("lump-nonexp")
	bad := freshClass(m2)
	bad.Transitions[1].Delay = uni
	if _, err := ReplicateLumped(m2, "c", 4, bad); !errors.Is(err, ErrNonExponential) {
		t.Errorf("uniform delay error = %v, want ErrNonExponential", err)
	}
	bad.Transitions[1].Delay = nil
	if _, err := ReplicateLumped(NewModel("lump-nil"), "c", 4, bad); !errors.Is(err, ErrNonExponential) {
		t.Error("nil delay accepted")
	}

	// Structural defects are ErrNotLumpable.
	structural := map[string]func(*ReplicaClass){
		"no states":           func(c *ReplicaClass) { c.States = nil },
		"duplicate state":     func(c *ReplicaClass) { c.States = []string{"up", "up"} },
		"empty state name":    func(c *ReplicaClass) { c.States = []string{"up", ""} },
		"unknown initial":     func(c *ReplicaClass) { c.Initial = "nope" },
		"unknown from":        func(c *ReplicaClass) { c.Transitions[0].From = "nope" },
		"unknown to":          func(c *ReplicaClass) { c.Transitions[0].To = "nope" },
		"self loop":           func(c *ReplicaClass) { c.Transitions[0].To = c.Transitions[0].From },
		"empty transition":    func(c *ReplicaClass) { c.Transitions[0].Name = "" },
		"duplicate transname": func(c *ReplicaClass) { c.Transitions[1].Name = c.Transitions[0].Name },
	}
	for name, mutate := range structural {
		mm := NewModel("lump-" + name)
		cc := freshClass(mm)
		mutate(&cc)
		if _, err := ReplicateLumped(mm, "c", 4, cc); !errors.Is(err, ErrNotLumpable) {
			t.Errorf("%s: error = %v, want ErrNotLumpable", name, err)
		}
	}
}

func TestReplicateEdgeCases(t *testing.T) {
	// Flat Replicate: negative counts are rejected, zero is an explicit
	// no-op, and duplicate prefixes surface the builder's place collision.
	if err := Replicate(NewModel("r"), "c", -1, nil); err == nil {
		t.Error("negative replicate count accepted")
	}
	m := NewModel("r0")
	called := false
	err := Replicate(m, "c", 0, func(*Model, string, int) error { called = true; return nil })
	if err != nil || called {
		t.Errorf("Replicate(n=0) = %v (builder called: %v), want silent no-op", err, called)
	}
	build := func(m *Model, prefix string, _ int) error {
		_, err := m.AddPlaceErr(Qualify(prefix, "up"), 1)
		return err
	}
	if err := Replicate(m, "c", 2, build); err != nil {
		t.Fatal(err)
	}
	if err := Replicate(m, "c", 2, build); !errors.Is(err, ErrDuplicatePlace) {
		t.Errorf("duplicate prefix error = %v, want ErrDuplicatePlace", err)
	}
}

// TestLumpedMatchesFlatPopulation pins the lumping argument numerically: a
// population of n independent exponential fail/repair components, built flat
// (n submodels) and lumped (one two-state class), must agree on the
// time-averaged failed count — with each other within pooled confidence
// intervals and with the closed-form n x MTTR/(MTTF+MTTR) — while the
// lumped model stays O(1) in size.
func TestLumpedMatchesFlatPopulation(t *testing.T) {
	const (
		n    = 40
		mttf = 100.0
		mttr = 10.0
	)
	opts := Options{Mission: 2000, Replications: 32, Seed: 5}

	flat := NewModel("flat")
	flatDown := flat.AddPlace("down_count", 0)
	err := Replicate(flat, "comp", n, func(m *Model, prefix string, _ int) error {
		up, err := m.AddPlaceErr(Qualify(prefix, "up"), 1)
		if err != nil {
			return err
		}
		down, err := m.AddPlaceErr(Qualify(prefix, "down"), 0)
		if err != nil {
			return err
		}
		m.AddTimedActivity(Qualify(prefix, "fail"), mustExp(t, mttf)).
			AddInputArc(up, 1).AddOutputArc(down, 1).AddOutputArc(flatDown, 1)
		m.AddTimedActivity(Qualify(prefix, "repair"), mustExp(t, mttr)).
			AddInputArc(down, 1).AddInputArc(flatDown, 1).AddOutputArc(up, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	lumped := NewModel("lumped")
	lumpedDown := lumped.AddPlace("down_count", 0)
	lp, err := ReplicateLumped(lumped, "comp", n, twoStateClass(t, mttf, mttr, lumpedDown))
	if err != nil {
		t.Fatal(err)
	}
	if lp.N != n || lp.State("up") == nil || lp.State("down") == nil {
		t.Fatalf("lumped places incomplete: %+v", lp)
	}
	if lp.State("up").Initial() != n || lp.State("down").Initial() != 0 {
		t.Errorf("initial counts = %d/%d, want %d/0", lp.State("up").Initial(), lp.State("down").Initial(), n)
	}
	if name := lp.ActivityName("fail"); lumped.Activity(name) == nil {
		t.Errorf("fail activity %q missing", name)
	}

	// The lumped model is O(states + transitions), not O(n).
	if got := lumped.Stats(); got.Places != 3 || got.Activities != 2 {
		t.Errorf("lumped model stats = %+v, want 3 places / 2 activities", got)
	}
	if got := flat.Stats(); got.Places != 2*n+1 || got.Activities != 2*n {
		t.Errorf("flat model stats = %+v, want %d places / %d activities", got, 2*n+1, 2*n)
	}

	reward := func(p *Place) []RewardVariable { return []RewardVariable{TokenTimeAverage("down", p)} }
	flatStudy, err := RunReplications(flat, reward(flatDown), opts)
	if err != nil {
		t.Fatal(err)
	}
	lumpedStudy, err := RunReplications(lumped, reward(lumpedDown), opts)
	if err != nil {
		t.Fatal(err)
	}

	want := n * mttr / (mttf + mttr)
	flatCI, err := flatStudy.Interval("down")
	if err != nil {
		t.Fatal(err)
	}
	lumpedCI, err := lumpedStudy.Interval("down")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(flatCI.Mean-want) > 3*flatCI.HalfWidth {
		t.Errorf("flat mean down = %v +/- %v, want ~%v", flatCI.Mean, flatCI.HalfWidth, want)
	}
	if math.Abs(lumpedCI.Mean-want) > 3*lumpedCI.HalfWidth {
		t.Errorf("lumped mean down = %v +/- %v, want ~%v", lumpedCI.Mean, lumpedCI.HalfWidth, want)
	}
	// Pooled-CI agreement between the two representations.
	pooled := math.Sqrt(flatCI.HalfWidth*flatCI.HalfWidth + lumpedCI.HalfWidth*lumpedCI.HalfWidth)
	if math.Abs(flatCI.Mean-lumpedCI.Mean) > 3*pooled {
		t.Errorf("flat %v vs lumped %v differ beyond pooled interval %v", flatCI.Mean, lumpedCI.Mean, pooled)
	}
}

// TestCompileSharedAcrossSimulators verifies the compile-layer contract: one
// CompiledModel backs several simulators, and a compiled-model simulator is
// bit-identical to the compatibility-shim path with the same stream.
func TestCompileSharedAcrossSimulators(t *testing.T) {
	m, up := buildFailRepair(t, 50, 5)
	rewards := []RewardVariable{UpFraction("avail", func(mr MarkingReader) bool { return mr.Tokens(up) == 1 })}
	cm, err := Compile(m, rewards)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Model() != m || len(cm.Rewards()) != 1 {
		t.Error("compiled model accessors broken")
	}
	if got := cm.Stats(); got.Places != 2 || got.Activities != 2 {
		t.Errorf("stats = %+v", got)
	}
	if _, err := cm.NewSimulator(nil); err == nil {
		t.Error("nil stream accepted")
	}

	simA, err := cm.NewSimulator(rng.NewStream(77, "shared"))
	if err != nil {
		t.Fatal(err)
	}
	simB := mustSimulator(t, m, rewards, rng.NewStream(77, "shared"))
	if simB.cm == cm {
		t.Error("shim unexpectedly reused the compiled model")
	}
	resA, err := simA.Run(3000)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := simB.Run(3000)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Rewards["avail"] != resB.Rewards["avail"] || resA.Events != resB.Events {
		t.Errorf("compiled vs shim runs differ: %+v vs %+v", resA, resB)
	}

	if _, err := Compile(nil, nil); err == nil {
		t.Error("nil model accepted")
	}
}
