package san

import (
	"math"
	"testing"
)

// TestCaseMasses pins the case masses and draw total of well-formed and
// ill-formed case probabilities. nilProb marks a nil-probability case.
func TestCaseMasses(t *testing.T) {
	nilProb := math.NaN()
	for _, tc := range []struct {
		name   string
		probs  []float64
		masses []float64
		total  float64
	}{
		{"well-formed explicit", []float64{0.25, 0.75}, []float64{0.25, 0.75}, 1},
		{"nil remainder", []float64{0.25, nilProb}, []float64{0.25, 0.75}, 1},
		{"nil cases share the remainder", []float64{0.5, nilProb, nilProb}, []float64{0.5, 0.25, 0.25}, 1},
		{"negative clamped", []float64{-0.5, nilProb}, []float64{0, 1}, 1},
		{"over-unity leaves nil cases nothing", []float64{1.5, nilProb}, []float64{1.5, 0}, 1.5},
		{"over-unity explicit", []float64{3, 1}, []float64{3, 1}, 4},
		{"under-unity without nil case", []float64{0.25, 0.25}, []float64{0.25, 0.25}, 0.5},
		{"zero total", []float64{0, -1}, []float64{0, 0}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewModel("cases").AddInstantaneousActivity("a")
			for _, p := range tc.probs {
				c := Case{}
				if !math.IsNaN(p) {
					c.Probability = func(MarkingReader) float64 { return p }
				}
				a.AddCase(c)
			}
			masses := make([]float64, len(tc.probs))
			for i := range masses {
				masses[i] = math.NaN() // every slot must be written
			}
			if total := a.CaseMasses(zeroMarking{}, masses); total != tc.total {
				t.Errorf("total = %v, want %v", total, tc.total)
			}
			for i, want := range tc.masses {
				if masses[i] != want {
					t.Errorf("masses = %v, want %v", masses, tc.masses)
					break
				}
			}
		})
	}
}
