package statespace

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/san"
)

// poissonTailFromMode returns P(N > n) for N ~ Poisson(lt), by an
// independent route from poissonTruncation's: the pmf at the mode from
// ln Γ, then the upward recurrence pmf(k+1) = pmf(k)·lt/(k+1), summed until
// the terms no longer move the sum (n at or above the mode).
func poissonTailFromMode(lt float64, n int) float64 {
	mode := int(lt)
	lf, _ := math.Lgamma(float64(mode + 1))
	p := math.Exp(-lt + float64(mode)*math.Log(lt) - lf)
	tail := 0.0
	for k := mode; ; k++ {
		if k > n {
			if tail+p == tail {
				return tail
			}
			tail += p
		}
		p *= lt / float64(k+1)
	}
}

// TestPoissonTruncationPoint checks the series' truncation point against an
// independent evaluation of the Poisson tail over the range of ΛT the
// solver accepts: P(N > R) < 1e-12 ≤ P(N > R−1). dist.RegularizedGammaP,
// the tail as a regularized gamma function, agrees at ΛT = 1e4, where its
// 500-term series converges.
func TestPoissonTruncationPoint(t *testing.T) {
	for _, lt := range []float64{10, 1e2, 1e3, 1e4, 1e5, 1e6} {
		maxIter := int(lt + 12*math.Sqrt(lt+1) + 50)
		r := poissonTruncation(lt, seriesTol, maxIter)
		above, at := poissonTailFromMode(lt, r), poissonTailFromMode(lt, r-1)
		if !(above < seriesTol && at >= seriesTol) {
			t.Errorf("ΛT %g: truncation point %d, but P(N > R) = %.6e and P(N > R−1) = %.6e", lt, r, above, at)
		}
		if r <= int(lt) || r >= maxIter {
			t.Errorf("ΛT %g: truncation point %d outside (ΛT, cap %d)", lt, r, maxIter)
		}
	}
	lt := 1e4
	r := poissonTruncation(lt, seriesTol, int(lt+12*math.Sqrt(lt+1)+50))
	if got, want := dist.RegularizedGammaP(float64(r+1), lt), poissonTailFromMode(lt, r); math.Abs(got-want) > 1e-9*want {
		t.Errorf("ΛT 1e4: RegularizedGammaP(R+1, ΛT) %.12e, tail %.12e", got, want)
	}
}

// TestSolveStopsAtTruncationWithoutMixing solves a chain that does not mix
// within the mission: a fast repairable machine beside a part with a 10⁶ h
// MTBF and no repair. Each sweep moves about 1e-6 of the mass, so the step
// test never fires; the series must stop at its Poisson truncation point,
// below the cap, and match the closed-form transient.
func TestSolveStopsAtTruncationWithoutMixing(t *testing.T) {
	const (
		lf, mf = 0.5, 2.0 // fast machine: failure and repair rates per hour
		ls     = 1e-6     // slow part: failure rate per hour
		T      = 2000.0   // mission hours
	)
	exp := func(rate float64) dist.Distribution {
		d, err := dist.NewExponentialFromRate(rate)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	m := san.NewModel("unmixed")
	fUp, fDown := m.AddPlace("fast_up", 1), m.AddPlace("fast_down", 0)
	sUp, sDown := m.AddPlace("slow_up", 1), m.AddPlace("slow_down", 0)
	m.AddTimedActivity("fast_fail", exp(lf)).AddInputArc(fUp, 1).AddOutputArc(fDown, 1)
	m.AddTimedActivity("fast_repair", exp(mf)).AddInputArc(fDown, 1).AddOutputArc(fUp, 1)
	m.AddTimedActivity("slow_fail", exp(ls)).AddInputArc(sUp, 1).AddOutputArc(sDown, 1)
	bothUp := func(mr san.MarkingReader) bool { return mr.Tokens(fUp) == 1 && mr.Tokens(sUp) == 1 }
	cm, err := san.Compile(m, []san.RewardVariable{
		san.UpFraction("both_up", bothUp),
		{Name: "both_up_at_end", Mode: san.InstantAtEnd, Rate: func(mr san.MarkingReader) float64 {
			if bothUp(mr) {
				return 1
			}
			return 0
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, cert := Certify(cm, Options{})
	if !cert.Certified() || len(gen.projections) != 1 {
		t.Fatalf("want one certified projection: %s, %d projections", cert.Summary(), len(gen.projections))
	}
	p := &gen.projections[0]
	lt := gen.maxExitRate(p) * T
	maxIter := int(lt + 12*math.Sqrt(lt+1) + 50)
	want := poissonTruncation(lt, seriesTol, maxIter)
	got := map[string]float64{}
	sweeps, err := gen.solveProjection(p, T, got)
	if err != nil {
		t.Fatal(err)
	}
	if sweeps != want || sweeps >= maxIter {
		t.Fatalf("ran %d sweeps, want the truncation point %d (cap %d, ΛT %.1f)", sweeps, want, maxIter, lt)
	}

	// The two parts are independent: P(fast up at t) = (mf + lf·e^{−ct})/c
	// with c = lf + mf, and P(slow up at t) = e^{−ls·t}.
	c := lf + mf
	a, b := mf/c, lf/c
	avail := (a*(1-math.Exp(-ls*T))/ls + b*(1-math.Exp(-(c+ls)*T))/(c+ls)) / T
	atEnd := (a + b*math.Exp(-c*T)) * math.Exp(-ls*T)
	if math.Abs(got["both_up"]-avail) > 1e-10 || math.Abs(got["both_up_at_end"]-atEnd) > 1e-10 {
		t.Fatalf("both_up %v, both_up_at_end %v; closed form %v, %v", got["both_up"], got["both_up_at_end"], avail, atEnd)
	}
}
