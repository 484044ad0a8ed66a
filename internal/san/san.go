// Package san implements the stochastic activity network (SAN) formalism
// that the paper's dependability models are expressed in, together with a
// discrete-event simulator and a replication runner that reports reward
// measures with confidence intervals — the role Möbius plays for the
// original study.
//
// A SAN consists of places holding tokens, timed and instantaneous
// activities, input gates (enabling predicates plus marking transformations)
// and output gates (marking transformations), and probabilistic cases on
// activities. Models are composed from submodels with Join/Replicate-style
// builders (see compose.go); reward variables (reward.go) define the
// measures of interest; the simulator (simulate.go) estimates them by
// terminating Monte Carlo simulation. What a completion does to the marking
// is defined once (fire.go): the simulator and the state-space explorer
// (internal/statespace) both apply it.
package san

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/dist"
)

// Common model-construction errors.
var (
	ErrDuplicatePlace    = errors.New("san: duplicate place name")
	ErrDuplicateActivity = errors.New("san: duplicate activity name")
	ErrUnknownPlace      = errors.New("san: place does not belong to this model")
	ErrNoDelay           = errors.New("san: timed activity without a delay distribution")
	ErrBadCase           = errors.New("san: activity case probabilities must be positive and sum to 1")
	ErrNegativeTokens    = errors.New("san: marking update drove a place negative")
)

// Place is a token holder. Places are created through Model.AddPlace and are
// identified by a hierarchical name (e.g. "cfs/oss[3]/up").
type Place struct {
	name    string
	index   int
	initial int
}

// Name returns the fully qualified place name.
func (p *Place) Name() string { return p.name }

// Initial returns the initial marking of the place.
func (p *Place) Initial() int { return p.initial }

// MarkingReader is read-only access to the current marking, passed to gate
// predicates, delay functions, case-probability functions, and reward
// functions.
type MarkingReader interface {
	// Tokens returns the number of tokens currently in p.
	Tokens(p *Place) int
}

// MarkingWriter is read-write access to the marking, passed to gate and case
// functions when an activity completes.
type MarkingWriter interface {
	MarkingReader
	// SetTokens sets the marking of p to n (n must be >= 0).
	SetTokens(p *Place, n int)
	// Add adds delta (possibly negative) tokens to p.
	Add(p *Place, delta int)
}

// Predicate is an input-gate enabling predicate.
type Predicate func(m MarkingReader) bool

// GateFunc is a marking transformation executed when an activity completes.
type GateFunc func(m MarkingWriter)

// DelayFunc returns the firing-delay distribution of a timed activity given
// the marking at the instant the activity became enabled. Marking-dependent
// rates (e.g. a failure rate proportional to the number of operational
// components) are expressed this way.
type DelayFunc func(m MarkingReader) dist.Distribution

// InputGate couples an enabling predicate with a marking transformation.
// Reads must list every place the predicate inspects so the simulator can
// re-evaluate enabling only when a relevant place changes.
type InputGate struct {
	Name      string
	Reads     []*Place
	Enabled   Predicate
	Transform GateFunc // optional; runs when the owning activity completes
}

// OutputGate is a marking transformation attached to an activity case.
type OutputGate struct {
	Name      string
	Transform GateFunc
}

// Arc connects an activity to a place with a multiplicity.
type Arc struct {
	Place *Place
	Mult  int
}

// Case is one probabilistic outcome of an activity. Probability may depend
// on the marking at completion time; the probabilities of all cases of an
// activity must sum to 1.
type Case struct {
	// Probability returns the case probability given the marking at
	// completion. If nil, the case is given the remaining probability mass
	// split evenly with other nil cases.
	Probability func(m MarkingReader) float64
	OutputArcs  []Arc
	OutputGates []*OutputGate
}

// ActivityKind distinguishes timed from instantaneous activities.
type ActivityKind int

// Supported activity kinds. Following the style guide, the enum starts at 1
// so the zero value is invalid and cannot be used by accident.
const (
	// Timed activities complete after a random delay drawn from their
	// distribution.
	Timed ActivityKind = iota + 1
	// Instantaneous activities complete immediately once enabled, before any
	// timed activity at the same instant.
	Instantaneous
)

// String implements fmt.Stringer.
func (k ActivityKind) String() string {
	switch k {
	case Timed:
		return "timed"
	case Instantaneous:
		return "instantaneous"
	default:
		return fmt.Sprintf("ActivityKind(%d)", int(k))
	}
}

// Activity is a state-changing unit of a SAN.
type Activity struct {
	name  string
	kind  ActivityKind
	index int
	delay DelayFunc
	// fixedDelay records the marking-independent distribution behind delay
	// when the activity was built with AddTimedActivity; it stays nil for
	// AddTimedActivityFunc activities. Static passes (ExpandPhases) need the
	// distribution itself, not just samples from it.
	fixedDelay dist.Distribution
	inputArcs  []Arc
	inputGates []*InputGate
	cases      []Case
	// reactivate, when true, causes the activity's delay to be resampled
	// whenever a dependent place changes while the activity remains enabled
	// (Möbius "reactivation predicate" behaviour). The default (false) keeps
	// the originally sampled completion time.
	reactivate bool
}

// Name returns the activity name.
func (a *Activity) Name() string { return a.name }

// Kind returns whether the activity is timed or instantaneous.
func (a *Activity) Kind() ActivityKind { return a.kind }

// SetReactivation enables resampling of the delay on marking changes.
func (a *Activity) SetReactivation(on bool) { a.reactivate = on }

// AddInputArc requires mult tokens in p for the activity to be enabled and
// removes them when it completes.
func (a *Activity) AddInputArc(p *Place, mult int) *Activity {
	a.inputArcs = append(a.inputArcs, Arc{Place: p, Mult: mult})
	return a
}

// AddInputGate attaches an input gate.
func (a *Activity) AddInputGate(g *InputGate) *Activity {
	a.inputGates = append(a.inputGates, g)
	return a
}

// AddCase appends a probabilistic case.
func (a *Activity) AddCase(c Case) *Activity {
	a.cases = append(a.cases, c)
	return a
}

// AddOutputArc adds an output arc to the default (single) case, creating it
// if necessary. It must not be mixed with explicit AddCase calls.
func (a *Activity) AddOutputArc(p *Place, mult int) *Activity {
	a.ensureDefaultCase()
	a.cases[0].OutputArcs = append(a.cases[0].OutputArcs, Arc{Place: p, Mult: mult})
	return a
}

// AddOutputGate adds an output gate to the default (single) case.
func (a *Activity) AddOutputGate(g *OutputGate) *Activity {
	a.ensureDefaultCase()
	a.cases[0].OutputGates = append(a.cases[0].OutputGates, g)
	return a
}

func (a *Activity) ensureDefaultCase() {
	if len(a.cases) == 0 {
		a.cases = append(a.cases, Case{})
	}
}

// enabled reports whether the activity is enabled in marking m.
func (a *Activity) enabled(m MarkingReader) bool {
	for _, arc := range a.inputArcs {
		if m.Tokens(arc.Place) < arc.Mult {
			return false
		}
	}
	for _, g := range a.inputGates {
		if g.Enabled != nil && !g.Enabled(m) {
			return false
		}
	}
	return true
}

// Model is a stochastic activity network: a set of places and activities.
// A Model is immutable during simulation, so one Model value can back many
// concurrent replications.
type Model struct {
	name       string
	places     []*Place
	placeByNm  map[string]*Place
	activities []*Activity
	actByName  map[string]*Activity
	// families holds the replicated-family lumpability verdicts declared by
	// model builders (DeclareFamily), reported by Analyze.
	families []LumpabilityVerdict
	// externalReads holds the declared out-of-model place readers
	// (DeclareExternalReader), folded into Analyze's read set.
	externalReads []externalRead
	// replicates holds the Replicate groups, in completion order.
	replicates []ReplicateGroup
}

// NewModel returns an empty model with the given name.
func NewModel(name string) *Model {
	return &Model{
		name:      name,
		placeByNm: make(map[string]*Place),
		actByName: make(map[string]*Activity),
	}
}

// Name returns the model name.
func (m *Model) Name() string { return m.name }

// rewriteCopy returns a copy of m that a rewrite pass (ExpandPhases,
// FitPhases) may extend and rewrite without touching m. Places and gates are
// shared: no pass mutates them, and gate closures capture the *Place
// pointers. The activities, the name maps, and every slice a rewrite appends
// to or writes through — input arcs, input gates, cases, and each case's
// output arcs and gates — are copied.
func (m *Model) rewriteCopy() *Model {
	out := &Model{
		name:          m.name,
		places:        slices.Clone(m.places),
		placeByNm:     maps.Clone(m.placeByNm),
		activities:    make([]*Activity, len(m.activities)),
		actByName:     make(map[string]*Activity, len(m.actByName)),
		families:      slices.Clone(m.families),
		externalReads: slices.Clone(m.externalReads),
		replicates:    slices.Clone(m.replicates),
	}
	for i, a := range m.activities {
		c := *a
		c.inputArcs = slices.Clone(a.inputArcs)
		c.inputGates = slices.Clone(a.inputGates)
		c.cases = slices.Clone(a.cases)
		for j := range c.cases {
			c.cases[j].OutputArcs = slices.Clone(c.cases[j].OutputArcs)
			c.cases[j].OutputGates = slices.Clone(c.cases[j].OutputGates)
		}
		out.activities[i] = &c
		out.actByName[c.name] = &c
	}
	return out
}

// AddPlace creates a place with the given name and initial marking. It
// panics on duplicate names because that is always a programming error in
// model construction; use AddPlaceErr when the name is computed from
// external input.
func (m *Model) AddPlace(name string, initial int) *Place {
	p, err := m.AddPlaceErr(name, initial)
	if err != nil {
		panic(err)
	}
	return p
}

// AddPlaceErr creates a place, reporting duplicates as errors.
func (m *Model) AddPlaceErr(name string, initial int) (*Place, error) {
	if _, ok := m.placeByNm[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicatePlace, name)
	}
	if initial < 0 {
		return nil, fmt.Errorf("san: place %q initial marking %d < 0", name, initial)
	}
	p := &Place{name: name, index: len(m.places), initial: initial}
	m.places = append(m.places, p)
	m.placeByNm[name] = p
	return p, nil
}

// Place returns the place with the given name, or nil.
func (m *Model) Place(name string) *Place { return m.placeByNm[name] }

// Places returns all places in creation order.
func (m *Model) Places() []*Place { return m.places }

// NumPlaces returns the number of places.
func (m *Model) NumPlaces() int { return len(m.places) }

// NumActivities returns the number of activities.
func (m *Model) NumActivities() int { return len(m.activities) }

// Activity returns the activity with the given name, or nil.
func (m *Model) Activity(name string) *Activity { return m.actByName[name] }

// Activities returns all activities in creation order.
func (m *Model) Activities() []*Activity { return m.activities }

// AddTimedActivity creates a timed activity with a fixed delay distribution.
func (m *Model) AddTimedActivity(name string, delay dist.Distribution) *Activity {
	a := m.addActivity(name, Timed, func(MarkingReader) dist.Distribution { return delay })
	a.fixedDelay = delay
	return a
}

// AddTimedActivityFunc creates a timed activity whose delay distribution is
// re-evaluated from the marking each time the activity becomes enabled.
func (m *Model) AddTimedActivityFunc(name string, delay DelayFunc) *Activity {
	return m.addActivity(name, Timed, delay)
}

// AddInstantaneousActivity creates an instantaneous activity.
func (m *Model) AddInstantaneousActivity(name string) *Activity {
	return m.addActivity(name, Instantaneous, nil)
}

func (m *Model) addActivity(name string, kind ActivityKind, delay DelayFunc) *Activity {
	if _, ok := m.actByName[name]; ok {
		panic(fmt.Errorf("%w: %q", ErrDuplicateActivity, name))
	}
	a := &Activity{name: name, kind: kind, delay: delay, index: len(m.activities)}
	m.activities = append(m.activities, a)
	m.actByName[name] = a
	return a
}

// Validate checks structural consistency of the model: every referenced
// place belongs to the model, timed activities have delays, and case
// probabilities are well-formed where they are marking-independent.
func (m *Model) Validate() error {
	owned := make(map[*Place]bool, len(m.places))
	for _, p := range m.places {
		owned[p] = true
	}
	checkArc := func(ctx string, arc Arc) error {
		if arc.Place == nil || !owned[arc.Place] {
			return fmt.Errorf("%w: %s references foreign or nil place", ErrUnknownPlace, ctx)
		}
		if arc.Mult <= 0 {
			return fmt.Errorf("san: %s has non-positive arc multiplicity %d", ctx, arc.Mult)
		}
		return nil
	}
	for _, a := range m.activities {
		if a.kind == Timed && a.delay == nil {
			return fmt.Errorf("%w: activity %q", ErrNoDelay, a.name)
		}
		for _, arc := range a.inputArcs {
			if err := checkArc("activity "+a.name+" input", arc); err != nil {
				return err
			}
		}
		for _, g := range a.inputGates {
			for _, p := range g.Reads {
				if !owned[p] {
					return fmt.Errorf("%w: gate %q of activity %q reads foreign place", ErrUnknownPlace, g.Name, a.name)
				}
			}
		}
		for ci, c := range a.cases {
			for _, arc := range c.OutputArcs {
				if err := checkArc(fmt.Sprintf("activity %s case %d output", a.name, ci), arc); err != nil {
					return err
				}
			}
		}
		if len(a.cases) > 1 {
			// When every probability is marking-independent we can check the
			// sum. A nil probability, or one that panics at the zero marking
			// (say, by indexing with a place's tokens), makes the activity
			// marking-dependent, and the check is skipped.
			sum := 0.0
			allStatic := true
			for _, c := range a.cases {
				if c.Probability == nil || !guard(func() { sum += c.Probability(zeroMarking{}) }) {
					allStatic = false
					break
				}
			}
			if allStatic && math.Abs(sum-1) > 1e-9 {
				return fmt.Errorf("%w: activity %q probabilities sum to %v", ErrBadCase, a.name, sum)
			}
		}
	}
	return nil
}

// zeroMarking is a MarkingReader that reports zero tokens everywhere; it is
// used only to probe marking-independent case probabilities in Validate,
// where it allocates nothing, unlike a place-sized Probe.
type zeroMarking struct{}

// Tokens implements MarkingReader.
func (zeroMarking) Tokens(*Place) int { return 0 }

// InitialMarking returns the initial token vector of the model.
func (m *Model) InitialMarking() []int {
	out := make([]int, len(m.places))
	for i, p := range m.places {
		out[i] = p.initial
	}
	return out
}
