// Package statespace is the structural analysis tier between the model layer
// (internal/san) and the numerical solvers: it derives the incidence matrix
// of a compiled model, computes place and transition invariants over the
// rationals, exhaustively generates the reachable state graph with vanishing
// markings eliminated on the fly, and emits a sparse CTMC generator with a
// machine-checked certificate (san.Certificate) proving the solver
// preconditions — memoryless timed behavior, terminating instantaneous
// behavior, and a finite state space — before any numerics run. Models that
// fail a precondition are refused with a structured reason, never silently
// solved.
//
// When the model records exchangeable replicate groups (san.Replicate),
// exploration generates the symmetric quotient instead of the flat chain:
// markings are interned with each group's instance blocks sorted, and a class
// is admitted only after every member gave its representative's successor
// classes, rates, impulses and reward rates bit for bit — strong lumpability
// checked on every flat state. A quotient that fails the check, or any
// refusal or budget overrun on the way, reruns the flat exploration, and the
// certificate records the collapsed groups (san.SymmetryEvidence).
//
// After exploration, the rewards are partitioned by the places they depend
// on (the places one edge changes together, the places a rate reward reads,
// the places changed by edges that earn an impulse), and when they fall
// into several components the chain is lumped onto each component's places.
// A lumping is admitted only after every state gave its class
// representative's cross-class edges, reward rates and same-class impulse
// flux bit for bit; SolveTransient then runs once per lumped chain, and any
// mismatch solves every reward on the whole chain, the identity projection
// (san.ProjectionEvidence).
//
// Exploration fires activities by san's completion rule (san/fire.go: input
// arcs, input-gate transforms, case masses, the case's output arcs and
// gates, post-fire impulses), the one the simulator applies, and closes every
// firing under the simulator's sweep-ordered instantaneous closure, so the
// generated chain is the chain the simulator samples.
//
// Certification and the solve run on the caller's goroutine and start none
// of their own: a sweep certifies its points on the workers of its point
// fan-out, which is the only pool (docs/statespace.md, "Performance").
package statespace

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/dist"
	"repro/internal/san"
)

// Options bound the structural analysis.
type Options struct {
	// MaxStates caps the exhaustive exploration. Zero means DefaultMaxStates.
	MaxStates int
}

// Analysis budgets. The invariant caps bound the incidence tableau: a model
// over them skips invariant computation, and its bounds then come from
// exploration alone.
const (
	DefaultMaxStates       = 50000
	maxInvariantPlaces     = 600
	maxInvariantColumns    = 1200
	maxFarkasRows          = 4096
	maxVanishingSweeps     = 10000
	maxRefusalPlacesListed = 8
)

// StateProb is one atom of a probability distribution over generated states.
type StateProb struct {
	State int
	Prob  float64
}

// Generator is the exhaustively generated CTMC of a certified model: the
// tangible reachable states in deterministic BFS order, the initial
// distribution (after eliminating a vanishing initial marking), and the
// outgoing edges of every state, stored compactly (chain.go;
// docs/statespace.md, "The generated CTMC").
type Generator struct {
	cm *san.CompiledModel
	// States holds the tangible markings in discovery (BFS) order, each
	// varint-packed in place-index order: read-only views into the marking
	// blocks, decoded by Marking. States[0] is the first tangible state
	// reached from the initial marking.
	States [][]byte
	// Initial is the distribution over States at time zero. A tangible
	// initial marking gives the single atom {0, 1}; a vanishing one may
	// split across the outcomes of its instantaneous closure.
	Initial []StateProb
	// InitialImpulses holds the expected impulse rewards (per reward
	// variable) earned during the initial vanishing closure, before time
	// starts.
	InitialImpulses []float64

	// marks holds the blocks States views, 1<<blockShift states each. The
	// edges of state s are out(s), its run in edges. kinds holds the
	// distinct (rate, impulse vector) pairs the edges name, and impulses
	// the distinct impulse vectors the kinds name, impulses[0] the nil of
	// every edge that earns none.
	marks    [][]byte
	edges    blockStore[edge]
	kinds    []edgeKind
	impulses [][]float64

	// projections are the lumped chains SolveTransient runs, set by
	// certification: one per component of the rewards, or the identity
	// projection alone (project.go).
	projections []projection
}

// Certify runs the full structural pipeline on a compiled model: memoryless
// pre-check, vanishing-loop analysis, invariant computation, and exhaustive
// state-space generation. It returns the generated CTMC together with the
// certificate; the generator is nil unless the certificate is Certified.
//
// The pipeline fails fast: a non-exponential delay or a vanishing loop
// refuses before exploration spends any budget, and the refusal strings are
// prefixed with the san.Refusal* constants so callers can classify them.
func Certify(cm *san.CompiledModel, opts Options) (*Generator, san.Certificate) {
	return certifyWith(cm, opts, explore)
}

// certifyWith is Certify with the exploration engine as a parameter, so the
// differential tests can run the same pipeline on their reference explorer.
func certifyWith(cm *san.CompiledModel, opts Options, explore func(*san.CompiledModel, Options) (*Generator, exploreResult)) (*Generator, san.Certificate) {
	if opts.MaxStates <= 0 {
		opts.MaxStates = DefaultMaxStates
	}
	var cert san.Certificate

	// 1. Memoryless pre-check at the initial marking. Per-state rates are
	// re-derived during exploration; this catches structurally hopeless
	// models (uniform repairs, Weibull wear-out) before any state is built.
	// The refusals are grouped by replicate pattern (san.ActivityRefusals).
	initial := markingVec(cm.InitialMarking())
	nonMemoryless := san.NewActivityRefusals(cm.Model(), san.RefusalNonMemoryless)
	for _, a := range cm.Model().Activities() {
		if a.Kind() != san.Timed {
			continue
		}
		if _, reason := delayRate(a, initial); reason != "" {
			nonMemoryless.Add(a.Name(), reason)
		}
	}
	cert.Refusals = nonMemoryless.Lines()
	cert.Memoryless = len(cert.Refusals) == 0

	// 2. Vanishing behavior: with no instantaneous activities elimination is
	// trivially terminating; otherwise the instantaneous-loop analysis must
	// rule out loops, or on-the-fly elimination has no termination proof.
	cert.VanishingFree = true
	if len(cm.Instantaneous()) > 0 {
		rep := san.Analyze(cm)
		for _, loop := range rep.VanishingLoops {
			cert.VanishingFree = false
			cert.Refusals = append(cert.Refusals,
				fmt.Sprintf("%s: instantaneous cycle %v", san.RefusalVanishingLoop, loop.Activities))
		}
	}

	if !cert.Memoryless || !cert.VanishingFree {
		return nil, cert
	}

	// 3. Invariants over the rationals. Budget overruns downgrade gracefully:
	// bounds then rest on exploration alone.
	inv := computeInvariants(cm)
	cert.PInvariants = len(inv.pInvariants)
	cert.TInvariants = inv.tInvariants

	// 4. Exhaustive exploration with on-the-fly vanishing elimination.
	gen, exp := explore(cm, opts)
	if exp.err != nil {
		cert.Bounded = false
		cert.Refusals = append(cert.Refusals, fmt.Sprintf("%s: %v", san.RefusalExploration, exp.err))
		return nil, cert
	}
	if exp.nonMemoryless != "" {
		cert.Memoryless = false
		cert.Refusals = append(cert.Refusals, fmt.Sprintf("%s: %s", san.RefusalNonMemoryless, exp.nonMemoryless))
		return nil, cert
	}
	if exp.budgetExceeded {
		cert.Bounded = false
		uncovered := inv.uncoveredPlaces(cm)
		if len(uncovered) > 0 {
			if n := len(uncovered); n > maxRefusalPlacesListed {
				// The truncation must be visible: a refusal naming 8 of 900
				// uncovered places would read as if it named all of them.
				uncovered = append(uncovered[:maxRefusalPlacesListed],
					fmt.Sprintf("... and %d more", n-maxRefusalPlacesListed))
			}
			cert.Refusals = append(cert.Refusals, fmt.Sprintf(
				"%s: exploration exceeded %d states and no place invariant bounds %v",
				san.RefusalUnbounded, opts.MaxStates, uncovered))
		} else {
			cert.Refusals = append(cert.Refusals, fmt.Sprintf(
				"%s: state space provably finite (every place invariant-bounded) but larger than the %d-state budget",
				san.RefusalBudget, opts.MaxStates))
		}
		return nil, cert
	}

	cert.Bounded = true
	cert.States = len(gen.States)
	cert.Transitions = gen.NumTransitions()
	cert.Symmetry = exp.symmetry
	cert.PlaceBounds = placeBounds(cm, inv, exp.observedMax)

	// 5. Projections: each reward's component, lumped and checked.
	gen.projections = gen.project(exp.changes)
	cert.Projections = gen.evidence(gen.projections)
	return gen, cert
}

// placeBounds assembles the per-place boundedness certificates: the
// invariant-derived bound where one exists and is consistent with the
// explored maximum (the invariant vector reported as evidence), otherwise
// the exhaustively observed maximum.
func placeBounds(cm *san.CompiledModel, inv invariantResult, observedMax []int) []san.PlaceBound {
	places := cm.Model().Places()
	bounds := make([]san.PlaceBound, 0, len(places))
	for _, p := range places {
		pi := p.Index()
		pb := san.PlaceBound{Place: p.Name(), Bound: observedMax[pi], Proof: san.ProofExploration}
		if b, ev, ok := inv.boundFor(pi, cm); ok && b >= observedMax[pi] {
			// An invariant bound below the observed maximum would mean the
			// gate deltas the closure probe found were not the real ones;
			// the exploration proof is then the trustworthy one.
			pb.Bound = b
			pb.Proof = san.ProofPInvariant
			pb.Invariant = ev
		}
		bounds = append(bounds, pb)
	}
	return bounds
}

// markingVec adapts a marking vector (place-index order) to san.MarkingReader.
type markingVec []int

func (v markingVec) Tokens(p *san.Place) int { return v[p.Index()] }

// activityRate classifies a timed activity's delay distribution at marking m
// by san.MemorylessRate and returns its rate, or an error naming the
// activity and why its delay is not memoryless.
func activityRate(a *san.Activity, m san.MarkingReader) (float64, error) {
	rate, reason := delayRate(a, m)
	if reason != "" {
		return 0, fmt.Errorf("activity %q: %s", a.Name(), reason)
	}
	return rate, nil
}

// delayRate is activityRate with the reason, which does not name the
// activity, in place of the error: "" when the delay is memoryless.
func delayRate(a *san.Activity, m san.MarkingReader) (rate float64, reason string) {
	defer func() {
		if r := recover(); r != nil {
			rate, reason = 0, fmt.Sprintf("delay evaluation panicked: %v", r)
		}
	}()
	d := a.DelayAt(m)
	if rate, ok := san.MemorylessRate(d); ok {
		return rate, ""
	}
	switch dd := d.(type) {
	case dist.Weibull:
		return 0, fmt.Sprintf("Weibull delay with shape %g", dd.Shape())
	case nil:
		return 0, "nil delay"
	default:
		// Name the remedy when one exists: a refusal over an exactly
		// expandable delay points the reader (and the solver tier's retry)
		// at san.ExpandPhases.
		if k, ok := san.PhaseExpandable(d); ok {
			return 0, fmt.Sprintf("%T delay (exactly expandable into %d exponential phases)", d, k)
		}
		return 0, fmt.Sprintf("%T delay", d)
	}
}

// sortedPlaceNames returns the names of the given place indices in sorted
// order, for deterministic refusal messages.
func sortedPlaceNames(cm *san.CompiledModel, idx []int) []string {
	names := make([]string, 0, len(idx))
	for _, i := range idx {
		names = append(names, cm.Model().Places()[i].Name())
	}
	sort.Strings(names)
	return names
}

// CertifyCascade is the sweep's certification cascade for one compiled
// model. It runs Certify; when the certificate is refused as non-memoryless
// and some timed activity is an expansion candidate (san.ExpansionCandidate)
// it retries through CertifyExpanded, and when the standing certificate is
// still refused as non-memoryless and fitTol > 0, through CertifyFitted.
// Both retries rewrite copies of cm.Model(), so cm stays as compiled for a
// simulation fallback. A retry's certificate replaces the standing one only
// when its pass rewrote something; otherwise the earlier refusals stand. A
// model without an expansion candidate is exactly one whose expansion
// rewrites nothing, so skipping its retry drops only a certificate the
// cascade would discard. The error return covers structural failures of the
// passes only — a refused certificate is a result, not an error.
func CertifyCascade(cm *san.CompiledModel, fitTol float64, opts Options) (*Generator, san.Certificate, error) {
	gen, cert := Certify(cm, opts)
	nonMemoryless := func() bool {
		return !cert.Certified() && slices.ContainsFunc(cert.Refusals, func(r string) bool {
			return strings.HasPrefix(r, san.RefusalNonMemoryless)
		})
	}
	expandable := func(a *san.Activity) bool {
		_, ok := san.ExpansionCandidate(a)
		return ok
	}
	if nonMemoryless() && slices.ContainsFunc(cm.Model().Activities(), expandable) {
		exGen, exCert, rep, err := CertifyExpanded(cm.Model(), cm.Rewards(), opts)
		if err != nil {
			return nil, san.Certificate{}, err
		}
		if len(rep.Expanded) > 0 {
			gen, cert = exGen, exCert
		}
	}
	if fitTol > 0 && nonMemoryless() {
		fitGen, fitCert, rep, err := CertifyFitted(cm.Model(), cm.Rewards(), fitTol, opts)
		if err != nil {
			return nil, san.Certificate{}, err
		}
		if len(rep.Fits) > 0 {
			gen, cert = fitGen, fitCert
		}
	}
	return gen, cert, nil
}

// CertifyExpanded is the certificate tier's entry point for the phase-type
// expansion pass: it runs san.ExpandPhases on m, compiles the expanded copy
// against the given rewards, and certifies it. The expansion evidence lands
// in Certificate.Expansions and, when the expanded model is still refused,
// the pass's classified non-expandable reasons are appended after the
// certificate's own refusals — so a reader sees both what was proven
// non-memoryless and why it could not be fixed. The error return covers
// structural failures only (invalid model, unsound expansion, compile
// failure) — a refused certificate is a result, not an error.
func CertifyExpanded(m *san.Model, rewards []san.RewardVariable, opts Options) (*Generator, san.Certificate, *san.ExpansionReport, error) {
	expanded, rep, err := san.ExpandPhases(m)
	if err != nil {
		return nil, san.Certificate{}, nil, err
	}
	cm, err := san.Compile(expanded, rewards)
	if err != nil {
		return nil, san.Certificate{}, nil, fmt.Errorf("statespace: compile expanded model: %w", err)
	}
	gen, cert := Certify(cm, opts)
	cert.Expansions = append([]string(nil), rep.Expanded...)
	if !cert.Certified() {
		cert.Refusals = append(cert.Refusals, rep.Refusals...)
	}
	return gen, cert, rep, nil
}

// CertifyFitted is the certificate tier's entry point for the approximate
// phase-type fitting pass, one tier below CertifyExpanded: it first runs the
// exact expansion (delays with an exact finite phase form always take it),
// then san.FitPhases with the given tolerance on the non-expandable
// remainder, compiles the rewritten copy, and certifies it. Expansion
// evidence lands in Certificate.Expansions and the certified fit evidence —
// original distribution, adopted surrogate, proven distance bound and
// metric — in Certificate.Approximations, so a certificate with non-empty
// Approximations can never be mistaken for an exact one. When the fitted
// model is still refused, both passes' classified reasons are appended
// after the certificate's own refusals. The error return covers structural
// failures only (invalid model or tolerance, unsound pass, compile failure)
// — a refused certificate is a result, not an error.
func CertifyFitted(m *san.Model, rewards []san.RewardVariable, tol float64, opts Options) (*Generator, san.Certificate, *san.FitReport, error) {
	expanded, exp, err := san.ExpandPhases(m)
	if err != nil {
		return nil, san.Certificate{}, nil, err
	}
	fitted, rep, err := san.FitPhases(expanded, tol)
	if err != nil {
		return nil, san.Certificate{}, nil, err
	}
	cm, err := san.Compile(fitted, rewards)
	if err != nil {
		return nil, san.Certificate{}, nil, fmt.Errorf("statespace: compile fitted model: %w", err)
	}
	gen, cert := Certify(cm, opts)
	cert.Expansions = append([]string(nil), exp.Expanded...)
	cert.Approximations = append([]san.FitEvidence(nil), rep.Fits...)
	if !cert.Certified() {
		cert.Refusals = append(cert.Refusals, exp.Refusals...)
		cert.Refusals = append(cert.Refusals, rep.Refusals...)
	}
	return gen, cert, rep, nil
}
