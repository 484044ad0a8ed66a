package san

import (
	"errors"
	"fmt"
)

// RewardMode selects how a reward variable is accumulated over a terminating
// simulation of length T (the mission time).
type RewardMode int

// Supported reward accumulation modes.
const (
	// TimeAveraged integrates a rate reward over [0, T] and divides by T —
	// the interval-of-time averaged reward used for availability measures.
	TimeAveraged RewardMode = iota + 1
	// Accumulated integrates a rate reward (and sums impulse rewards) over
	// [0, T] without normalizing — used for counts such as disks replaced.
	Accumulated
	// InstantAtEnd evaluates a rate reward in the final marking at time T.
	InstantAtEnd
)

// String implements fmt.Stringer.
func (m RewardMode) String() string {
	switch m {
	case TimeAveraged:
		return "time-averaged"
	case Accumulated:
		return "accumulated"
	case InstantAtEnd:
		return "instant-at-end"
	default:
		return fmt.Sprintf("RewardMode(%d)", int(m))
	}
}

// RateFunc maps a marking to a reward rate. It must be a function of the
// tokens it reads (see RewardVariable.Rate).
type RateFunc func(m MarkingReader) float64

// ImpulseFunc maps the marking at an activity completion to an impulse
// reward contribution.
type ImpulseFunc func(m MarkingReader) float64

// RewardVariable defines one measure estimated by the simulator.
type RewardVariable struct {
	// Name identifies the measure in results (e.g. "cfs_availability").
	Name string
	// Mode selects the accumulation semantics.
	Mode RewardMode
	// Rate is the rate reward (may be nil for pure impulse rewards). It must
	// be a function of the tokens it reads: the simulator re-evaluates it
	// only after a completion changed a place its last evaluation read, so
	// a rate that also depends on anything outside the marking goes stale.
	Rate RateFunc
	// Impulses maps activity names to impulse rewards earned each time that
	// activity completes.
	Impulses map[string]ImpulseFunc
}

// ErrBadReward reports an ill-formed reward variable.
var ErrBadReward = errors.New("san: invalid reward variable")

// validate checks the reward variable against the model it will be evaluated
// on.
func (rv RewardVariable) validate(m *Model) error {
	if rv.Name == "" {
		return fmt.Errorf("%w: empty name", ErrBadReward)
	}
	switch rv.Mode {
	case TimeAveraged, Accumulated, InstantAtEnd:
	default:
		return fmt.Errorf("%w: %q has unknown mode %v", ErrBadReward, rv.Name, rv.Mode)
	}
	if rv.Rate == nil && len(rv.Impulses) == 0 {
		return fmt.Errorf("%w: %q defines neither rate nor impulse rewards", ErrBadReward, rv.Name)
	}
	if rv.Mode == InstantAtEnd && len(rv.Impulses) > 0 {
		return fmt.Errorf("%w: %q mixes impulse rewards with instant-of-time mode", ErrBadReward, rv.Name)
	}
	// Sorted names so a reward referencing several unknown activities fails
	// with the same message on every run.
	for _, actName := range sortedKeys(rv.Impulses) {
		if m.Activity(actName) == nil {
			return fmt.Errorf("%w: %q references unknown activity %q", ErrBadReward, rv.Name, actName)
		}
	}
	return nil
}

// UpFraction is a convenience constructor for the most common reward in this
// repository: the time-averaged fraction of time a predicate over the
// marking holds (an availability).
func UpFraction(name string, predicate Predicate) RewardVariable {
	return RewardVariable{
		Name: name,
		Mode: TimeAveraged,
		Rate: func(m MarkingReader) float64 {
			if predicate(m) {
				return 1
			}
			return 0
		},
	}
}

// CompletionCount is a convenience constructor counting completions of a set
// of activities over the mission (e.g. disks replaced).
func CompletionCount(name string, activityNames ...string) RewardVariable {
	impulses := make(map[string]ImpulseFunc, len(activityNames))
	for _, an := range activityNames {
		impulses[an] = func(MarkingReader) float64 { return 1 }
	}
	return RewardVariable{Name: name, Mode: Accumulated, Impulses: impulses}
}

// TokenTimeAverage is a convenience constructor for the time-averaged token
// count of a place (e.g. mean number of failed servers).
func TokenTimeAverage(name string, p *Place) RewardVariable {
	return RewardVariable{
		Name: name,
		Mode: TimeAveraged,
		Rate: func(m MarkingReader) float64 { return float64(m.Tokens(p)) },
	}
}
