package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewStreamDeterministic(t *testing.T) {
	a := NewStream(42, "a")
	b := NewStream(42, "b")
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: streams with equal seeds diverged: %d != %d", i, got, want)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := NewStream(1, "a")
	b := NewStream(2, "b")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with distinct seeds produced %d identical draws out of 1000", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewStream(7, "parent")
	// Record what the parent would have produced without splitting, after the
	// single draw Split consumes.
	probe := NewStream(7, "probe")
	probe.Uint64()
	var expect [64]uint64
	for i := range expect {
		expect[i] = probe.Uint64()
	}

	child := parent.Split("child")
	for i := range expect {
		if got := parent.Uint64(); got != expect[i] {
			t.Fatalf("parent draw %d perturbed by Split: got %d want %d", i, got, expect[i])
		}
	}
	// Child should not replay the parent's sequence.
	parent2 := NewStream(7, "parent2")
	parent2.Uint64()
	matches := 0
	for i := 0; i < 256; i++ {
		if child.Uint64() == parent2.Uint64() {
			matches++
		}
	}
	if matches > 2 {
		t.Fatalf("child stream replays parent sequence (%d matches)", matches)
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewStream(99, "range")
	for i := 0; i < 100000; i++ {
		u := s.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", u)
		}
	}
}

func TestOpenFloat64Range(t *testing.T) {
	s := NewStream(123, "open")
	for i := 0; i < 100000; i++ {
		u := s.OpenFloat64()
		if u <= 0 || u >= 1 {
			t.Fatalf("OpenFloat64 out of (0,1): %v", u)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	s := NewStream(2024, "moments")
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		u := s.Float64()
		sum += u
		sumSq += u * u
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12.0) > 0.005 {
		t.Errorf("uniform variance = %v, want ~%v", variance, 1.0/12.0)
	}
}

func TestIntnBounds(t *testing.T) {
	s := NewStream(5, "intn")
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("Intn(7): value %d drawn %d times out of 70000, expected ~10000", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	s := NewStream(1, "panic")
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	s.Intn(0)
}

func TestNormalMoments(t *testing.T) {
	s := NewStream(31415, "normal")
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := s.Normal()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := NewStream(8, "perm")
	p := s.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid or duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestStateRestoreRoundTrip(t *testing.T) {
	s := NewStream(100, "ckpt")
	for i := 0; i < 10; i++ {
		s.Uint64()
	}
	saved := s.State()
	var want [16]uint64
	for i := range want {
		want[i] = s.Uint64()
	}
	if err := s.Restore(saved); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for i := range want {
		if got := s.Uint64(); got != want[i] {
			t.Fatalf("draw %d after Restore: got %d want %d", i, got, want[i])
		}
	}
}

func TestRestoreRejectsZeroState(t *testing.T) {
	s := NewStream(1, "zero")
	if err := s.Restore([4]uint64{}); err != ErrDegenerateSeed {
		t.Fatalf("Restore(zero) error = %v, want ErrDegenerateSeed", err)
	}
}

func TestStringAndLabel(t *testing.T) {
	s := NewStream(3, "disk-7")
	if s.Label() != "disk-7" {
		t.Errorf("Label() = %q, want %q", s.Label(), "disk-7")
	}
	if got := s.String(); got != "rng.Stream(disk-7)" {
		t.Errorf("String() = %q", got)
	}
}

// Property: Float64 always lies in [0,1) and Intn(n) in [0,n) for any seed.
func TestQuickRangeProperties(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		s := NewStream(seed, "quick")
		bound := int(n%1000) + 1
		for i := 0; i < 50; i++ {
			u := s.Float64()
			if u < 0 || u >= 1 {
				return false
			}
			v := s.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: splitting never yields a degenerate (all-zero) child state.
func TestQuickSplitNonDegenerate(t *testing.T) {
	f := func(seed uint64) bool {
		s := NewStream(seed, "p")
		for i := 0; i < 10; i++ {
			c := s.Split("c")
			st := c.State()
			if st[0]|st[1]|st[2]|st[3] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := NewStream(1, "bench")
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	s := NewStream(1, "bench")
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Float64()
	}
	_ = sink
}
