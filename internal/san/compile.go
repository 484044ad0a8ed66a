package san

import (
	"errors"

	"repro/internal/rng"
)

// ModelStats summarizes the size of a model — the quantity the lumping layer
// exists to shrink. Reports publish it as the "model_stats" view so the
// flat-vs-lumped trade is visible next to every result.
type ModelStats struct {
	// Places is the number of places (state variables).
	Places int
	// Activities is the number of activities (event sources).
	Activities int
}

// Stats returns the size of the model.
func (m *Model) Stats() ModelStats {
	return ModelStats{Places: m.NumPlaces(), Activities: m.NumActivities()}
}

// CompiledModel is the immutable, simulation-ready form of a Model: the
// validated structure plus the derived indexes every replication needs — the
// place-to-dependent-activities index, the per-activity impulse-reward
// bindings, the instantaneous-activity list, and the initial marking. It is
// built once by Compile and then shared read-only by any number of
// Simulators (one per worker goroutine), so the O(model) index derivation is
// paid per study, not per worker or per replication.
//
// The Model must not be mutated after Compile: the compiled indexes snapshot
// the structure at compile time and would silently go stale.
type CompiledModel struct {
	model   *Model
	rewards []RewardVariable
	initial []int

	// dependents[placeIndex] lists activities whose enabling can change when
	// that place's marking changes.
	dependents [][]*Activity

	// impulsesByActivity[activityIndex] lists the impulse rewards earned when
	// that activity completes, pre-resolved from the reward variables'
	// name-keyed maps so the hot path avoids string lookups.
	impulsesByActivity [][]impulseBinding

	// instantaneous caches the model's instantaneous activities so the
	// vanishing-marking resolution step does not scan every activity when (as
	// in the CFS models) there are none.
	instantaneous []*Activity

	// rateRewards lists the indexes of the rewards with a rate reward, in
	// reward order; impulse-only rewards earn nothing between completions.
	rateRewards []int
}

// Compile validates the model and reward variables and derives the
// simulation indexes. The returned CompiledModel is immutable and safe for
// concurrent use.
func Compile(model *Model, rewards []RewardVariable) (*CompiledModel, error) {
	if model == nil {
		return nil, errors.New("san: nil model")
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	for _, rv := range rewards {
		if err := rv.validate(model); err != nil {
			return nil, err
		}
	}
	cm := &CompiledModel{
		model:   model,
		rewards: rewards,
		initial: model.InitialMarking(),
	}
	cm.buildDependents()
	cm.buildImpulseIndex()
	for _, a := range model.activities {
		if a.kind == Instantaneous {
			cm.instantaneous = append(cm.instantaneous, a)
		}
	}
	for i, rv := range rewards {
		if rv.Rate != nil {
			cm.rateRewards = append(cm.rateRewards, i)
		}
	}
	return cm, nil
}

// Model returns the underlying model. Callers must treat it as read-only.
func (cm *CompiledModel) Model() *Model { return cm.model }

// Rewards returns the reward variables the model was compiled with.
func (cm *CompiledModel) Rewards() []RewardVariable { return cm.rewards }

// Stats returns the size of the compiled model.
func (cm *CompiledModel) Stats() ModelStats { return cm.model.Stats() }

// NewSimulator returns a simulator over the compiled model drawing
// randomness from stream. Validation and index derivation happened once in
// Compile, so it is cheap enough to call per worker (or even per
// replication).
func (cm *CompiledModel) NewSimulator(stream *rng.Stream) (*Simulator, error) {
	if stream == nil {
		return nil, errors.New("san: nil random stream")
	}
	s := &Simulator{
		cm:             cm,
		stream:         stream,
		run:            newRunState(cm),
		maxInstFirings: 10000,
		seenGeneration: make([]uint64, cm.model.NumActivities()),
	}
	s.onComplete = func(id int, now float64) { s.complete(&s.run, cm.model.activities[id], now) }
	return s, nil
}

// buildImpulseIndex resolves the name-keyed impulse maps of every reward
// variable to activity indices once, so completions do not perform string
// map lookups.
func (cm *CompiledModel) buildImpulseIndex() {
	cm.impulsesByActivity = make([][]impulseBinding, cm.model.NumActivities())
	for ri, rv := range cm.rewards {
		// Sorted names so the per-activity binding order (and with it the
		// floating-point accumulation order at each completion) is the same
		// on every run.
		for _, actName := range sortedKeys(rv.Impulses) {
			a := cm.model.Activity(actName)
			if a == nil {
				continue // validated earlier; defensive
			}
			cm.impulsesByActivity[a.index] = append(cm.impulsesByActivity[a.index], impulseBinding{rewardIndex: ri, fn: rv.Impulses[actName]})
		}
	}
}

// buildDependents indexes, for each place, the activities whose enabling
// condition reads that place (through input arcs or declared gate reads).
func (cm *CompiledModel) buildDependents() {
	cm.dependents = make([][]*Activity, cm.model.NumPlaces())
	add := func(p *Place, a *Activity) {
		for _, existing := range cm.dependents[p.index] {
			if existing == a {
				return
			}
		}
		cm.dependents[p.index] = append(cm.dependents[p.index], a)
	}
	for _, a := range cm.model.activities {
		for _, arc := range a.inputArcs {
			add(arc.Place, a)
		}
		for _, g := range a.inputGates {
			for _, p := range g.Reads {
				add(p, a)
			}
		}
	}
}
