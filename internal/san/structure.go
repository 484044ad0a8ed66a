package san

import (
	"fmt"
	"strings"

	"repro/internal/dist"
)

// This file is the read-only structural surface of the model layer: the
// accessors a structural analyzer (internal/statespace) needs to derive the
// incidence matrix and exhaustively explore the reachable state graph of a
// compiled model, plus the Certificate type such an analyzer produces. The
// model builder API stays write-oriented and the simulator keeps its private
// fast paths; everything here exposes existing structure without copying the
// hot-path representation.

// Index returns the place's position in the model's marking vector. Marking
// vectors produced by structural analysis (state-space exploration) are
// indexed by it.
func (p *Place) Index() int { return p.index }

// Index returns the activity's position in the model's activity list.
func (a *Activity) Index() int { return a.index }

// Reactivation reports whether the activity resamples its delay whenever a
// dependent place changes while it stays enabled (see SetReactivation).
func (a *Activity) Reactivation() bool { return a.reactivate }

// InputArcs returns the activity's input arcs. The slice is the model's own
// storage and must not be mutated.
func (a *Activity) InputArcs() []Arc { return a.inputArcs }

// InputGates returns the activity's input gates. The slice is the model's
// own storage and must not be mutated.
func (a *Activity) InputGates() []*InputGate { return a.inputGates }

// Cases returns the activity's probabilistic cases in declaration order. The
// slice is the model's own storage and must not be mutated.
func (a *Activity) Cases() []Case { return a.cases }

// DelayAt evaluates the activity's delay function against marking m and
// returns the resulting distribution (nil for instantaneous activities).
func (a *Activity) DelayAt(m MarkingReader) dist.Distribution {
	if a.delay == nil {
		return nil
	}
	return a.delay(m)
}

// FixedDelay returns the marking-independent delay distribution the activity
// was built with (AddTimedActivity), or nil when the delay is re-evaluated
// from the marking (AddTimedActivityFunc) or the activity is instantaneous.
// Static passes that need the distribution object itself — not a sample —
// start here.
func (a *Activity) FixedDelay() dist.Distribution { return a.fixedDelay }

// Enabled reports whether the activity is enabled in marking m: every input
// arc satisfied and every input-gate predicate true. This is exactly the
// simulator's enabling test.
func (a *Activity) Enabled(m MarkingReader) bool { return a.enabled(m) }

// InitialMarking returns a copy of the compiled model's initial marking, in
// place-index order.
func (cm *CompiledModel) InitialMarking() []int {
	return append([]int(nil), cm.initial...)
}

// Instantaneous returns the compiled model's instantaneous activities in
// model declaration order — the order the simulator sweeps them in when it
// eliminates vanishing markings. The slice is the compiled model's own
// storage and must not be mutated.
func (cm *CompiledModel) Instantaneous() []*Activity { return cm.instantaneous }

// ---------------------------------------------------------------------------
// External readers
// ---------------------------------------------------------------------------

// ExternalReader names a consumer outside the compiled model (a rare-event
// importance function, a monitoring hook) together with the places it reads.
// Analyze treats declared external reads like in-model reads, so a place kept
// solely for such a consumer is not flagged as unread state.
type ExternalReader struct {
	// Name identifies the consumer (e.g. "rareevent importance").
	Name string `json:"name"`
	// Places are the names of the places the consumer reads.
	Places []string `json:"places"`
}

// DeclareExternalReader records that the named consumer outside the compiled
// model reads the given places. Model builders declare the readers their
// exported importance/monitor hooks use; Analyze folds the declarations into
// its read set so shipped configurations analyze without advisory noise.
func (m *Model) DeclareExternalReader(name string, places ...*Place) {
	m.externalReads = append(m.externalReads, externalRead{name: name, places: places})
}

// externalRead is one DeclareExternalReader record.
type externalRead struct {
	name   string
	places []*Place
}

// ---------------------------------------------------------------------------
// Structural certificates
// ---------------------------------------------------------------------------

// Refusal reason prefixes of a Certificate. Every refusal string starts with
// one of these, so reports and tests can classify refusals without parsing
// free text.
const (
	// RefusalNonMemoryless: a timed activity's delay is not exponential (or
	// its rate is marking-dependent without reactivation), so the model is
	// not a CTMC and uniformization would be silently wrong.
	RefusalNonMemoryless = "non-memoryless"
	// RefusalVanishingLoop: the instantaneous-loop analysis (san.Analyze)
	// cannot rule out a vanishing-marking loop, so on-the-fly elimination of
	// vanishing markings has no termination guarantee.
	RefusalVanishingLoop = "vanishing-loop"
	// RefusalUnbounded: exploration exceeded its state budget and at least
	// one place carries no P-invariant bound — the state space may well be
	// infinite.
	RefusalUnbounded = "unbounded"
	// RefusalBudget: an analysis budget (state count, invariant tableau) was
	// exceeded even though no place is provably unbounded; the model is too
	// large to solve numerically, not ill-formed.
	RefusalBudget = "budget"
	// RefusalExploration: exploration failed outright (negative marking, a
	// panicking gate closure, an instantaneous closure that never
	// stabilized).
	RefusalExploration = "exploration"
	// RefusalNonExpandable: the phase-type expansion pass (ExpandPhases)
	// found a non-memoryless delay it cannot rewrite into an exact chain of
	// exponential phases — a distribution with no finite phase-type form
	// (uniform window, deterministic activation, Weibull wear-out,
	// non-integer Gamma shape) or an activity whose structure defeats the
	// expansion's exactness argument (reactivation, input gates, an input
	// place other activities consume or gates write).
	RefusalNonExpandable = "non-expandable"
	// RefusalNonFittable: the approximate phase-type fitting pass
	// (FitPhases) could not adopt a surrogate for a non-memoryless delay —
	// no supported surrogate meets the caller's tolerance, the distribution
	// exposes no closed-form moments or CDF to certify against, or the
	// activity's structure defeats the surrogate realization (a chain needs
	// the same stable-enabling argument as exact expansion).
	RefusalNonFittable = "non-fittable"
)

// Proof kinds of a PlaceBound.
const (
	// ProofPInvariant: the bound follows from a nonnegative place invariant
	// y (y·C = 0): y·M = y·M0 in every reachable marking M, so
	// M(p) <= (y·M0)/y_p.
	ProofPInvariant = "p-invariant"
	// ProofExploration: the bound is the maximum token count observed over
	// the exhaustively explored reachable state space.
	ProofExploration = "exploration"
)

// PlaceBound is a per-place boundedness certificate: an upper bound on the
// place's token count over the reachable state space, with the proof that
// establishes it.
type PlaceBound struct {
	// Place is the place name.
	Place string `json:"place"`
	// Bound is the proven upper bound on the token count.
	Bound int `json:"bound"`
	// Proof is ProofPInvariant or ProofExploration.
	Proof string `json:"proof"`
	// Invariant renders the invariant vector evidence ("2·a + b = 5") when
	// Proof is ProofPInvariant.
	Invariant string `json:"invariant,omitempty"`
}

// Certificate is the structural certificate a numerical solver requires
// before it may run: the model's timed behavior is memoryless, its
// instantaneous behavior provably vanishes, and its reachable state space is
// finite — or a structured refusal explaining which precondition failed. It
// extends the lumpability-verdict machinery from behavioral advisories to
// machine-checked solver preconditions.
type Certificate struct {
	// Memoryless reports that every timed activity has an exponential delay
	// at every reachable marking (and marking-dependent rates reactivate).
	Memoryless bool `json:"memoryless"`
	// VanishingFree reports that the instantaneous-loop analysis found no
	// vanishing-marking loop, so eliminating vanishing markings terminates.
	VanishingFree bool `json:"vanishing_free"`
	// Bounded reports that the reachable state space was exhaustively
	// explored within budget, with every place's bound recorded.
	Bounded bool `json:"bounded"`
	// States and Transitions are the size of the generated CTMC (set only
	// when Bounded).
	States      int `json:"states,omitempty"`
	Transitions int `json:"transitions,omitempty"`
	// Symmetry is set when the generated CTMC is the symmetric quotient of
	// the flat chain: States and Transitions then count equivalence classes
	// and their edges, and the evidence names the collapsed groups and the
	// flat states checked.
	Symmetry *SymmetryEvidence `json:"symmetry,omitempty"`
	// Projections is set when the solver answers the rewards on more than
	// one lumped chain: one entry per projection, in the order the solver
	// runs them. Empty means every reward is solved on the whole chain.
	Projections []ProjectionEvidence `json:"projections,omitempty"`
	// PInvariants and TInvariants count the invariants found over the
	// rationals (zero when the invariant tableau exceeded its budget).
	PInvariants int `json:"p_invariants,omitempty"`
	TInvariants int `json:"t_invariants,omitempty"`
	// PlaceBounds holds the per-place boundedness certificates (set only
	// when Bounded).
	PlaceBounds []PlaceBound `json:"place_bounds,omitempty"`
	// Refusals lists the structured reasons the certificate was refused,
	// each prefixed with one of the Refusal* constants. Empty iff Certified.
	// Per-activity reasons are stated once per replicate pattern and
	// reason (ActivityRefusals), in the order of each group's first
	// activity, so a replicated model refuses in a few lines.
	Refusals []string `json:"refusals,omitempty"`
	// Expansions holds the phase-type expansion evidence when the certified
	// model is the image of ExpandPhases: one string per rewritten activity,
	// recording the original distribution, the phase count, and the stage
	// rates. Empty when the model certified as built.
	Expansions []string `json:"expansions,omitempty"`
	// Approximations holds the certified fit evidence when the model is the
	// image of FitPhases: one entry per fitted activity, recording the
	// original distribution, the adopted surrogate, and the proven distance
	// bound with its metric. Non-empty means the analytic answer is
	// approximate — reports must label it so, never as exact.
	Approximations []FitEvidence `json:"approximations,omitempty"`
}

// SymmetryEvidence records a symmetric quotient. Exploration interned every
// marking with the instances of each listed replicate group sorted, and
// admitted each equivalence class only after expanding every distinct
// permutation of its representative: each gave the same multiset of
// (successor class, rate, impulse vector) and the same reward rates, bit for
// bit, which is the strong lumpability condition.
type SymmetryEvidence struct {
	// Groups are the prefixes of the collapsed replicate groups.
	Groups []string `json:"groups"`
	// FlatStates is the number of flat markings checked, every member of
	// every class: the flat chain's state count whenever the flat chain
	// reaches every member.
	FlatStates int `json:"flat_states"`
}

// ProjectionEvidence records one projection of the generated CTMC: the
// chain lumped onto the places of one component, on which the solver
// answered the component's rewards. A component holds the places its rate
// rewards read, the places changed by the edges that earn its impulses, and
// every place an edge changes together with one of those. The lumping was
// checked state by state: every state gave its class representative's
// multiset of (successor class, rate, impulses of these rewards), reward
// rates and same-class impulse flux bit for bit, which is strong
// lumpability.
type ProjectionEvidence struct {
	// Rewards names the rewards answered on this projection.
	Rewards []string `json:"rewards"`
	// Places is the number of places of the component.
	Places int `json:"places"`
	// States and Transitions are the size of the lumped chain: its classes
	// and the cross-class edges of their representatives.
	States      int `json:"states"`
	Transitions int `json:"transitions"`
}

// Certified reports whether every solver precondition holds.
func (c Certificate) Certified() bool { return c.Memoryless && c.VanishingFree && c.Bounded }

// Summary renders the certificate in one line, for text reports.
func (c Certificate) Summary() string {
	if c.Certified() {
		expanded := ""
		if n := len(c.Expansions); n > 0 {
			expanded = fmt.Sprintf(" (after phase expansion of %d activities)", n)
		}
		if n := len(c.Approximations); n > 0 {
			expanded += fmt.Sprintf(" (approximate: %d fitted surrogates with certified bounds)", n)
		}
		if c.Symmetry != nil {
			expanded += fmt.Sprintf(" (symmetric quotient of %d flat states)", c.Symmetry.FlatStates)
		}
		return fmt.Sprintf("certified%s: %d states, %d transitions, %d P-invariants, %d T-invariants",
			expanded, c.States, c.Transitions, c.PInvariants, c.TInvariants)
	}
	if len(c.Refusals) == 0 {
		return "refused"
	}
	return "refused: " + strings.Join(c.Refusals, "; ")
}
