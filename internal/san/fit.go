package san

import (
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/phfit"
)

// This file is the certified approximate phase-type fitting pass: the
// static model-to-model transformation one tier below ExpandPhases. Where
// expansion rewrites only delays with an *exact* finite phase form, FitPhases
// substitutes moment-matched phase-type surrogates for the delays that have
// none — Weibull wear-out, uniform repair windows, lognormal outages,
// empirical samples, deterministic timers — and adopts a surrogate only
// together with a machine-checked bound on its CDF distance to the original
// (internal/phfit). The substitution is therefore never silent: every fit
// carries its evidence (FitEvidence) into the solver certificate's
// Approximations, and callers must label the resulting analytic answers as
// approximate.
//
// Soundness splits into two obligations:
//
//   - Accuracy: the surrogate's certified Kolmogorov (or, for point masses,
//     relative Lévy) distance to the original delay is within the caller's
//     tolerance. phfit proves this before the surrogate is ever adopted;
//     anything over tolerance is refused with a classified
//     RefusalNonFittable reason.
//   - Realization: the rewritten model's delay for the activity is
//     distributed exactly as the fitted surrogate. Chain surrogates reuse
//     the expansion pass's chain rewrite and therefore inherit its
//     stable-enabling preconditions (a half-walked chain must never
//     misrepresent a cancel-and-resample). Mixture surrogates are realized
//     as an instantaneous branch selector: a spin place feeds a two-case
//     instantaneous activity that marks a branch place with 1 or 2 tokens;
//     the activity reads the branch through an input gate, draws the
//     branch's exponential rate, and on completion returns the spin token
//     and clears the branch so the next cycle redraws. Because the branch
//     is chosen independently of everything the model observes, an enabled,
//     disabled, or reactivated activity sees exactly a fresh
//     hyperexponential sample each time — memorylessness of the branches
//     plus independence of the selector make the realization exact for the
//     surrogate even though the branch outlives individual enablings.
//
// FitReport.Verify re-checks the realization obligation (every touched
// activity ends up memoryless, marking-dependent ones with reactivation);
// statespace.Certify then independently re-proves memorylessness at every
// reachable marking, so an unsound fit cannot reach the solver even if
// Verify were wrong.

// ErrFitUnsound reports a violated fitting proof obligation: an activity the
// pass claims to have fitted does not have a memoryless delay. It indicates
// a bug in the pass itself, never a property of the input model.
var ErrFitUnsound = fmt.Errorf("san: phase-type fit proof obligation violated")

// FitEvidence is the machine-checked record of one adopted surrogate: what
// was replaced, what replaced it, and the proven distance bound with its
// metric. It is carried into Certificate.Approximations so a report can
// never present a fitted answer as exact.
type FitEvidence struct {
	// Activity names the fitted activity.
	Activity string `json:"activity"`
	// Original describes the replaced delay distribution.
	Original string `json:"original"`
	// Surrogate describes the adopted phase-type surrogate.
	Surrogate string `json:"surrogate"`
	// Family is the surrogate family (erlang, hypoexponential,
	// hyperexponential, exponential).
	Family string `json:"family"`
	// Phases is the surrogate's phase count.
	Phases int `json:"phases"`
	// Metric names the certified distance: phfit.MetricKolmogorov for
	// continuous originals, phfit.MetricLevy for point masses.
	Metric string `json:"metric"`
	// Bound is the certified upper bound on the metric distance.
	Bound float64 `json:"bound"`
	// Tolerance is the caller's tolerance the bound was proven against.
	Tolerance float64 `json:"tolerance"`
	// MomentsMatched counts the leading raw moments matched exactly.
	MomentsMatched int `json:"moments_matched"`
}

// FitReport is the fitting certificate FitPhases emits: evidence for every
// adopted surrogate and a classified refusal for every non-memoryless
// activity left in place. Activities that were already memoryless appear in
// neither list.
type FitReport struct {
	// Fits holds one evidence record per fitted activity. Callers copy it
	// into san.Certificate.Approximations.
	Fits []FitEvidence `json:"fits,omitempty"`
	// Refusals holds the RefusalNonFittable-prefixed reasons for the
	// non-memoryless activities the pass could not fit within tolerance,
	// one line per replicate pattern and reason (ActivityRefusals).
	Refusals []string `json:"refusals,omitempty"`
	// touched names every timed activity the pass created or mutated, for
	// the Verify proof obligation.
	touched []string
}

// Touched returns the names of every timed activity the pass created or
// rewrote, in deterministic (declaration) order.
func (r *FitReport) Touched() []string {
	return append([]string(nil), r.touched...)
}

// Verify is the analyzer rule behind the fit's realization proof
// obligation: every timed activity the pass created or rewrote must exist
// in m and be memoryless — a fixed exponential delay for chain stages, or a
// marking-dependent delay that is exponential at the initial marking and
// reactivates (the branch-selector realization) for mixtures.
// statespace.Certify additionally re-proves memorylessness at every
// reachable marking, so an unsound fit cannot reach the solver even if this
// rule were wrong.
func (r *FitReport) Verify(m *Model) error {
	for _, name := range r.touched {
		a := m.Activity(name)
		if a == nil {
			return fmt.Errorf("%w: fitted activity %q missing from model", ErrFitUnsound, name)
		}
		if a.fixedDelay != nil {
			if reason := DelayLumpability(fmt.Sprintf("activity %q", name), a.fixedDelay); reason != "" {
				return fmt.Errorf("%w: %s", ErrFitUnsound, reason)
			}
			continue
		}
		if !a.reactivate {
			return fmt.Errorf("%w: activity %q has a marking-dependent fitted delay without reactivation", ErrFitUnsound, name)
		}
		if reason := delayLumpabilityAt(a, m.InitialMarking()); reason != "" {
			return fmt.Errorf("%w: activity %q: %s", ErrFitUnsound, name, reason)
		}
	}
	return nil
}

// FitPhases returns a copy of m in which every timed activity whose delay is
// non-memoryless and has no exact finite phase-type form is rewritten into a
// certified approximate phase-type surrogate within tol (a Kolmogorov/Lévy
// CDF distance in (0, 1)), and reports classified refusals for everything it
// could not fit. m itself is left untouched, so it may already be compiled.
// In a certified pipeline FitPhases runs on ExpandPhases' output: expansion
// owns the delays that expand exactly, and FitPhases refuses them rather
// than approximating what has an exact answer.
//
// The pass never adopts a surrogate silently: every fit is recorded as
// FitEvidence with its proven bound, and the caller is responsible for
// carrying that evidence into the certificate and labeling the resulting
// answers approximate.
func FitPhases(m *Model, tol float64) (*Model, *FitReport, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, fmt.Errorf("san: fit phases: %w", err)
	}
	// Delegate tolerance validation to the fitter so the two can never
	// disagree; a Deterministic(1) probe delay is always constructible.
	probe, err := dist.NewDeterministic(1)
	if err != nil {
		return nil, nil, fmt.Errorf("san: fit phases: %w", err)
	}
	if _, err := phfit.Fit(probe, tol); err != nil && !errors.Is(err, phfit.ErrNonFittable) {
		return nil, nil, fmt.Errorf("san: fit phases: %w", err)
	}
	report := &FitReport{}
	stable := newChainStability(m)
	m = m.rewriteCopy()

	refusals := NewActivityRefusals(m, RefusalNonFittable)
	refuse := func(a *Activity, format string, args ...any) {
		refusals.Add(a.name, fmt.Sprintf(format, args...))
	}

	// The range evaluates m.activities once, so the stage and selector
	// activities the rewrites append are not themselves revisited.
	for _, a := range m.activities {
		if a.kind != Timed {
			continue
		}
		d := a.fixedDelay
		if d == nil {
			if reason := delayLumpabilityAt(a, m.InitialMarking()); reason != "" {
				refuse(a, "marking-dependent delay is not statically fittable (%s)", reason)
			}
			continue
		}
		if _, ok := MemorylessRate(d); ok {
			continue // already memoryless
		}
		if k, ok := PhaseExpandable(d); ok {
			refuse(a, "%s has an exact %d-phase expansion; fitting applies only to non-expandable delays (run ExpandPhases first)",
				dist.Describe(d), k)
			continue
		}
		res, err := phfit.Fit(d, tol)
		if err != nil {
			if errors.Is(err, phfit.ErrNonFittable) {
				refuse(a, "%v", err)
				continue
			}
			return nil, nil, fmt.Errorf("san: fit phases: activity %q: %w", a.name, err)
		}
		sur := res.Surrogate
		if !sur.Mixture() && sur.Phases() > 1 {
			// The chain realization reuses the expansion rewrite and needs
			// its stable-enabling argument: a disabled half-walked chain
			// would not model the surrogate's cancel-and-resample.
			if reason := chainStabilityRefusal(a, stable, sur.Describe()); reason != "" {
				refuse(a, "%s", reason)
				continue
			}
		}
		if sur.Mixture() {
			if err := fitMixtureActivity(m, a, sur); err != nil {
				return nil, nil, err
			}
			report.touched = append(report.touched, a.name)
		} else {
			if err := expandActivity(m, a, sur.Rates()); err != nil {
				return nil, nil, err
			}
			report.touched = append(report.touched, a.name)
			for i := 1; i < sur.Phases(); i++ {
				report.touched = append(report.touched, phaseName(a.name, i))
			}
		}
		report.Fits = append(report.Fits, FitEvidence{
			Activity:       a.name,
			Original:       dist.Describe(d),
			Surrogate:      sur.Describe(),
			Family:         sur.Family(),
			Phases:         sur.Phases(),
			Metric:         res.Metric,
			Bound:          res.Bound,
			Tolerance:      res.Tolerance,
			MomentsMatched: res.MomentsMatched,
		})
	}
	report.Refusals = refusals.Lines()
	if err := report.Verify(m); err != nil {
		return nil, nil, err
	}
	return m, report, nil
}

// chainStabilityRefusal checks the expansion pass's stable-enabling
// preconditions for a chain rewrite of a, returning a refusal reason or "".
func chainStabilityRefusal(a *Activity, stable *chainStability, surrogate string) string {
	if a.reactivate {
		return fmt.Sprintf("reactivation resamples the whole delay on marking changes; a fitted chain (%s) cannot", surrogate)
	}
	if len(a.inputGates) > 0 {
		return "input-gate enabling cannot be proven stable across a fitted chain"
	}
	return stable.refusal(a)
}

// fitMixtureActivity realizes a two-branch hyperexponential surrogate on a:
// an instantaneous selector draws the branch into a fresh branch place, the
// activity's delay becomes the branch's exponential, and every completion
// returns the spin token and clears the branch for the next draw.
func fitMixtureActivity(m *Model, a *Activity, sur phfit.Surrogate) error {
	rates := sur.Rates()
	slow, err := dist.NewExponentialFromRate(rates[0])
	if err != nil {
		return fmt.Errorf("san: fit phases: activity %q: %w", a.name, err)
	}
	fast, err := dist.NewExponentialFromRate(rates[1])
	if err != nil {
		return fmt.Errorf("san: fit phases: activity %q: %w", a.name, err)
	}
	p := sur.BranchProbability()
	spin, err := m.AddPlaceErr(a.name+"/spin", 1)
	if err != nil {
		return fmt.Errorf("san: fit phases: %w", err)
	}
	branch, err := m.AddPlaceErr(a.name+"/branch", 0)
	if err != nil {
		return fmt.Errorf("san: fit phases: %w", err)
	}
	// The selector consumes the spin token (so it cannot loop) and marks
	// the branch place with 1 (slow branch, probability p) or 2 tokens. It
	// uses output arcs, not gates, so the instantaneous-cycle analysis sees
	// its writes exactly.
	m.AddInstantaneousActivity(a.name+"/select").
		AddInputArc(spin, 1).
		AddCase(Case{
			Probability: func(MarkingReader) float64 { return p },
			OutputArcs:  []Arc{{Place: branch, Mult: 1}},
		}).
		AddCase(Case{
			Probability: func(MarkingReader) float64 { return 1 - p },
			OutputArcs:  []Arc{{Place: branch, Mult: 2}},
		})
	a.AddInputGate(&InputGate{
		Name:  a.name + "/fit-ig",
		Reads: []*Place{branch},
		Enabled: func(mr MarkingReader) bool {
			return mr.Tokens(branch) > 0
		},
	})
	// The delay defaults to the slow branch so it is well-defined at
	// markings where the branch is empty (the activity is disabled there;
	// the certificate tier still evaluates the delay everywhere).
	a.delay = func(mr MarkingReader) dist.Distribution {
		if mr.Tokens(branch) == 2 {
			return fast
		}
		return slow
	}
	a.fixedDelay = nil
	// The branch rate differs across markings, so the CTMC semantics
	// require reactivation; resampling an exponential at an unchanged rate
	// is distributionally invisible in the simulator.
	a.SetReactivation(true)
	a.ensureDefaultCase()
	for i := range a.cases {
		c := &a.cases[i]
		c.OutputArcs = append(c.OutputArcs, Arc{Place: spin, Mult: 1})
		c.OutputGates = append(c.OutputGates, &OutputGate{
			Name: fmt.Sprintf("%s/fit-og%d", a.name, i),
			Transform: func(mw MarkingWriter) {
				mw.SetTokens(branch, 0)
			},
		})
	}
	return nil
}
