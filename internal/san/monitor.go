package san

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// ImportanceFunc maps a marking to a scalar measuring how close the state is
// to a rare event of interest (e.g. the maximum number of concurrently
// failed disks in any RAID tier). Importance-splitting drivers partition its
// range into levels and clone trajectories at level upcrossings.
type ImportanceFunc func(m MarkingReader) float64

// Monitor observes an importance function during a replication. The
// simulator evaluates Importance after initialization and after every
// activity completion; the first time the value reaches Threshold, OnCross
// is invoked with the simulation time and a full state snapshot.
type Monitor struct {
	// Importance is the observed function (required for the monitor to have
	// any effect).
	Importance ImportanceFunc
	// Threshold is the level whose first upcrossing fires OnCross.
	Threshold float64
	// OnCross is called at the first completion whose importance reaches
	// Threshold. The snapshot is freshly allocated and owned by the callback.
	OnCross func(now float64, snap *Snapshot)
	// StopOnCross halts the replication at the crossing, making the
	// threshold set absorbing — the right semantics for estimating the
	// probability of hitting the set within the mission time.
	StopOnCross bool
}

// Snapshot captures the complete state of an in-progress replication: the
// simulation clock, the marking, every pending activity completion (as an
// absolute firing time), the reward accumulators, the fired-event count, and
// the random-stream state (via rng.Stream.State). A snapshot taken at a
// level crossing can be restored with Simulator.RunFrom to clone the
// trajectory, either replaying it exactly (same RNG state) or continuing it
// with fresh randomness (overwrite RNG before restoring).
type Snapshot struct {
	// Time is the simulation clock at the snapshot instant.
	Time float64
	// Tokens is the marking, indexed like Model.Places().
	Tokens []int
	// Scheduled holds the absolute completion time of each activity's
	// pending event, indexed like Model.Activities(); NaN means the activity
	// has no pending completion.
	Scheduled []float64
	// ScheduledSeq holds the engine sequence number of each pending
	// completion, parallel to Scheduled: the one its latest schedule or
	// reschedule took. The engine fires completions in (time, sequence)
	// order, so restoring re-schedules them in ascending sequence, and
	// completions tied in time fire in the same relative order as in the
	// parent trajectory. May be nil for hand-built snapshots, in which case
	// activity index order is used.
	ScheduledSeq []uint64
	// RateAccum and Impulses are the reward accumulators, indexed like the
	// simulator's reward variables. The current rate of each rate reward is
	// not stored: a rate reward is a function of the marking, so RunFrom
	// re-evaluates it on Tokens.
	RateAccum []float64
	Impulses  []float64
	// RNG is the generator state of the simulator's stream.
	RNG [4]uint64
	// Events is the number of activity completions executed so far.
	Events uint64
}

// Clone returns a deep copy of the snapshot, so a splitting driver can
// restart several trajectories from one stored entry state (overwriting RNG
// per restart) without aliasing.
func (sn *Snapshot) Clone() *Snapshot {
	out := *sn
	out.Tokens = append([]int(nil), sn.Tokens...)
	out.Scheduled = append([]float64(nil), sn.Scheduled...)
	out.ScheduledSeq = append([]uint64(nil), sn.ScheduledSeq...)
	out.RateAccum = append([]float64(nil), sn.RateAccum...)
	out.Impulses = append([]float64(nil), sn.Impulses...)
	return &out
}

// snapshot captures st at time now. Reward integrals are current through now
// because complete integrates before observing the monitor.
func (s *Simulator) snapshot(st *runState, now float64) *Snapshot {
	n := s.cm.model.NumActivities()
	snap := &Snapshot{
		Time:         now,
		Tokens:       append([]int(nil), st.mark.tokens...),
		Scheduled:    make([]float64, n),
		ScheduledSeq: make([]uint64, n),
		RateAccum:    append([]float64(nil), st.rateAccum...),
		Impulses:     append([]float64(nil), st.impulses...),
		RNG:          s.stream.State(),
		Events:       st.engine.Fired(),
	}
	for i := range n {
		t, seq, ok := st.engine.Pending(i)
		if !ok {
			t = math.NaN()
		}
		snap.Scheduled[i], snap.ScheduledSeq[i] = t, seq
	}
	return snap
}

// validateSnapshot checks that snap is structurally compatible with the
// simulator's model and rewards.
func (s *Simulator) validateSnapshot(snap *Snapshot, mission float64) error {
	if snap == nil {
		return fmt.Errorf("san: nil snapshot")
	}
	if len(snap.Tokens) != s.cm.model.NumPlaces() {
		return fmt.Errorf("san: snapshot has %d places, model has %d", len(snap.Tokens), s.cm.model.NumPlaces())
	}
	if len(snap.Scheduled) != s.cm.model.NumActivities() {
		return fmt.Errorf("san: snapshot has %d activities, model has %d", len(snap.Scheduled), s.cm.model.NumActivities())
	}
	if len(snap.RateAccum) != len(s.cm.rewards) || len(snap.Impulses) != len(s.cm.rewards) {
		return fmt.Errorf("san: snapshot reward accumulators do not match %d reward variables", len(s.cm.rewards))
	}
	if math.IsNaN(snap.Time) || snap.Time < 0 {
		return fmt.Errorf("san: snapshot time %v invalid", snap.Time)
	}
	if !(mission > snap.Time) || math.IsInf(mission, 0) || math.IsNaN(mission) {
		return fmt.Errorf("san: mission %v must exceed snapshot time %v", mission, snap.Time)
	}
	return nil
}

// ResamplePredicate selects activities whose pending delay is re-drawn
// (from the restored marking) instead of preserved when a snapshot is
// restored. For exponential delays re-drawing is exactly
// distribution-preserving (memorylessness), and it de-correlates clones
// restarted from a shared entry state — without it, a splitting stage's
// outcome can be dominated by the frozen residual times all clones of an
// entry inherit. For non-exponential delays resampling changes the estimand
// and should not be requested.
type ResamplePredicate func(a *Activity) bool

// RunFrom resumes a replication from a snapshot and runs it to the mission
// end, observing mon like RunMonitored. The simulator's stream is restored
// from snap.RNG: restoring an unmodified snapshot replays the original
// trajectory bit-for-bit, while a splitting driver that wants an independent
// clone overwrites snap.RNG (via Clone) with a fresh stream state first.
// Residual completion times of pending activities are preserved exactly —
// they are part of the trajectory state being cloned — except for
// activities selected by resample (may be nil), whose delays are re-drawn.
func (s *Simulator) RunFrom(snap *Snapshot, mission float64, mon *Monitor, resample ResamplePredicate) (Result, error) {
	if err := s.validateSnapshot(snap, mission); err != nil {
		return Result{}, err
	}
	if err := s.stream.Restore(snap.RNG); err != nil {
		return Result{}, err
	}
	st := s.startRun(mon)
	copy(st.mark.tokens, snap.Tokens)
	// Evaluating the rate rewards on the restored marking gives the rates
	// the parent trajectory held there and rebuilds the places each reads.
	s.snapshotRates(st)
	copy(st.rateAccum, snap.RateAccum)
	copy(st.impulses, snap.Impulses)
	st.lastTime = snap.Time
	if err := st.engine.ResumeAt(snap.Time, snap.Events); err != nil {
		return Result{}, err
	}
	// Re-schedule pending completions in their original sequence order: the
	// engine breaks completion-time ties by sequence, so restoring in
	// activity-index order could fire tied deterministic completions in a
	// different order than the parent trajectory.
	type pendingEvent struct {
		index int
		seq   uint64
	}
	var pend []pendingEvent
	for i, t := range snap.Scheduled {
		if math.IsNaN(t) {
			continue
		}
		seq := uint64(i)
		if len(snap.ScheduledSeq) == len(snap.Scheduled) {
			seq = snap.ScheduledSeq[i]
		}
		pend = append(pend, pendingEvent{index: i, seq: seq})
	}
	sort.Slice(pend, func(a, b int) bool { return pend[a].seq < pend[b].seq })
	for _, pe := range pend {
		t := snap.Scheduled[pe.index]
		a := s.cm.model.activities[pe.index]
		if resample != nil && resample(a) {
			// Fresh delay from the restored marking; the engine clock is
			// already at snap.Time, so this schedules at snap.Time + delay.
			s.scheduleCompletion(st, a)
			continue
		}
		if t < snap.Time {
			return Result{}, fmt.Errorf("san: snapshot schedules activity %q at %v before snapshot time %v",
				a.name, t, snap.Time)
		}
		if err := st.engine.Schedule(pe.index, t); err != nil {
			return Result{}, err
		}
	}

	// The entry state may already sit at or above the (higher) threshold —
	// e.g. when one completion jumps several importance levels at once.
	s.observe(st, snap.Time)
	if !(st.crossed && mon.StopOnCross) {
		st.engine.Run(mission, s.onComplete)
	}
	if st.err != nil {
		return Result{}, st.err
	}
	return s.finishRun(st, mission), nil
}

// Reseed overwrites the snapshot's RNG state with a freshly seeded stream
// state, so a restored trajectory continues with randomness independent of
// the parent trajectory (the splitting driver's clone semantics).
func (sn *Snapshot) Reseed(seed uint64) {
	sn.RNG = rng.NewStream(seed, "snapshot-reseed").State()
}
