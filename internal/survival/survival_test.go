package survival

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/rng"
)

// generateWeibullSample draws a censored sample from a known Weibull
// distribution: every lifetime beyond the study window is censored at the
// window end, mirroring how the ABE disk logs truncate at the log end date.
func generateWeibullSample(t *testing.T, shape, scale, window float64, n int, seed uint64) []Observation {
	t.Helper()
	w, err := dist.NewWeibull(shape, scale)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.NewStream(seed, "survival-gen")
	obs := make([]Observation, 0, n)
	for i := 0; i < n; i++ {
		life := w.Sample(s)
		if life > window {
			obs = append(obs, Observation{Time: window, Event: false})
		} else {
			obs = append(obs, Observation{Time: life, Event: true})
		}
	}
	return obs
}

func TestFitWeibullRecoversParametersUncensored(t *testing.T) {
	obs := generateWeibullSample(t, 1.5, 1000, math.Inf(1), 4000, 42)
	fit, err := FitWeibull(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Shape-1.5) > 0.08 {
		t.Errorf("fitted shape = %v, want ~1.5", fit.Shape)
	}
	if math.Abs(fit.Scale-1000)/1000 > 0.05 {
		t.Errorf("fitted scale = %v, want ~1000", fit.Scale)
	}
	if fit.Events != 4000 || fit.N != 4000 {
		t.Errorf("events/N = %d/%d, want 4000/4000", fit.Events, fit.N)
	}
}

func TestFitWeibullRecoversParametersCensored(t *testing.T) {
	// Heavy censoring, like the disk logs: most disks survive the window.
	obs := generateWeibullSample(t, 0.7, 300000, 2000, 5000, 7)
	fit, err := FitWeibull(obs)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Events == 0 || fit.Events == fit.N {
		t.Fatalf("expected partial censoring, got %d/%d events", fit.Events, fit.N)
	}
	if math.Abs(fit.Shape-0.7) > 0.25 {
		t.Errorf("fitted shape = %v, want ~0.7 (±0.25 with heavy censoring)", fit.Shape)
	}
	if fit.ShapeStdErr <= 0 || math.IsNaN(fit.ShapeStdErr) {
		t.Errorf("shape stderr = %v, want positive", fit.ShapeStdErr)
	}
	// The 95% Wald interval from the standard error covers the true shape.
	if math.Abs(fit.Shape-0.7) > 1.96*fit.ShapeStdErr {
		t.Errorf("shape %v ± %v does not cover the true shape 0.7", fit.Shape, 1.96*fit.ShapeStdErr)
	}
}

func TestFitWeibullExponentialData(t *testing.T) {
	// Exponential data should fit with shape ~1.
	obs := generateWeibullSample(t, 1.0, 500, math.Inf(1), 3000, 11)
	fit, err := FitWeibull(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Shape-1.0) > 0.06 {
		t.Errorf("fitted shape = %v, want ~1.0", fit.Shape)
	}
	if math.Abs(fit.MTBF()-500)/500 > 0.06 {
		t.Errorf("fitted MTBF = %v, want ~500", fit.MTBF())
	}
}

func TestFitWeibullErrors(t *testing.T) {
	if _, err := FitWeibull(nil); err != ErrNoData {
		t.Errorf("FitWeibull(nil) = %v, want ErrNoData", err)
	}
	if _, err := FitWeibull([]Observation{{Time: 10, Event: false}}); err != ErrNoEvents {
		t.Errorf("all-censored fit error = %v, want ErrNoEvents", err)
	}
	if _, err := FitWeibull([]Observation{{Time: 0, Event: true}}); err == nil {
		t.Error("zero time accepted")
	}
}

func TestWeibullFitDerivedQuantities(t *testing.T) {
	fit := WeibullFit{Shape: 1, Scale: 8760, N: 10, Events: 5, ShapeStdErr: 0.1}
	if math.Abs(fit.MTBF()-8760) > 1e-9 {
		t.Errorf("MTBF = %v, want 8760", fit.MTBF())
	}
	if math.Abs(fit.AFR()-1.0) > 1e-9 {
		t.Errorf("AFR = %v, want 1.0", fit.AFR())
	}
	if fit.String() == "" {
		t.Error("String empty")
	}
}

// Property: FitWeibull recovers the generating shape within a loose tolerance
// for random parameters on uncensored moderate samples.
func TestQuickFitWeibullRecovery(t *testing.T) {
	f := func(shapeSeed, scaleSeed uint16, seed uint64) bool {
		shape := 0.5 + float64(shapeSeed%20)/10.0 // 0.5 .. 2.4
		scale := 100 + float64(scaleSeed%10000)   // 100 .. 10100
		w, err := dist.NewWeibull(shape, scale)
		if err != nil {
			return false
		}
		s := rng.NewStream(seed, "quick-fit")
		obs := make([]Observation, 800)
		for i := range obs {
			obs[i] = Observation{Time: w.Sample(s), Event: true}
		}
		fit, err := FitWeibull(obs)
		if err != nil {
			return false
		}
		return math.Abs(fit.Shape-shape)/shape < 0.25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
