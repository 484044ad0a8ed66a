package san

import (
	"fmt"
	"math"

	"repro/internal/dist"
)

// This file is the certified phase-type expansion pass: a static
// model-to-model transformation that rewrites non-exponential delays with an
// exact finite phase-type form — Erlang (integer-shape Gamma) and
// sums of exponential stages (hypoexponential) — into chains of per-phase
// exponential activities through fresh phase places, so the structural
// certificate tier (internal/statespace) can prove and solve models the
// memoryless precondition used to refuse outright.
//
// The exactness argument, per expanded activity A with stage rates
// λ_1..λ_k:
//
//   - A chain activity fires per stage: stage 1 is enabled exactly when A's
//     input arcs are satisfied and no phase token exists; each completion
//     moves the single phase token one place down the chain; the final stage
//     is A itself, with its delay replaced by Exponential(λ_k) and one extra
//     input arc from the last phase place. Total time from chain start to
//     A's completion is the sum of k independent exponentials — precisely
//     A's original Erlang/hypoexponential delay.
//   - Tokens stay in A's input places for the whole chain and are consumed,
//     as before, only when A itself completes; A keeps its name, input arcs,
//     gatelessness, and cases. Rate rewards (which read places), impulse
//     rewards (which are keyed by activity name), case probabilities, and
//     output transforms therefore observe markings and completions that are
//     distributionally identical to the original model's.
//   - The rewrite is exact only if A's enabling cannot be withdrawn while
//     the chain runs (the original would cancel and later resample the whole
//     delay; a half-walked chain would not). ExpandPhases proves this
//     statically: A must not reactivate, must have no input gates, and no
//     other activity may consume from — and no gate transform may write —
//     any of A's input places. Other activities' output arcs only add
//     tokens, which cannot disable an input arc. Anything the proof does not
//     cover is refused with a classified RefusalNonExpandable reason, never
//     expanded approximately.
//
// The pass appends its evidence (original distribution → phase count →
// stage rates) to the solver certificate via Certificate.Expansions, and
// Verify re-checks the proof obligation that every activity it touched ended
// up memoryless.

// ErrExpansionUnsound reports a violated expansion proof obligation: an
// activity the pass claims to have expanded does not have a memoryless
// delay. It indicates a bug in the pass itself, never a property of the
// input model.
var ErrExpansionUnsound = fmt.Errorf("san: phase expansion proof obligation violated")

// maxExpansionPhases bounds the chain length one activity may expand into;
// beyond it the state-space blow-up defeats the point of solving the model
// numerically, so the pass refuses instead (classified, like every refusal).
const maxExpansionPhases = 64

// integerShapeTol is the tolerance for recognizing an integer Gamma shape;
// shapes come from calibrated literals (2, 3, ...) so anything further from
// an integer than this is a genuinely non-Erlang Gamma.
const integerShapeTol = 1e-9

// ExpansionReport is the expansion certificate ExpandPhases emits: evidence
// for every rewritten activity and a classified refusal for every
// non-memoryless activity it could not rewrite exactly. Activities that were
// already memoryless appear in neither list.
type ExpansionReport struct {
	// Expanded holds one evidence string per rewritten activity: the
	// original distribution, the phase count, and the stage rates. Callers
	// append it to san.Certificate.Expansions.
	Expanded []string `json:"expanded,omitempty"`
	// Refusals holds one RefusalNonExpandable-prefixed reason per
	// non-memoryless activity the pass had to leave in place.
	Refusals []string `json:"refusals,omitempty"`
	// touched names every activity the pass created or mutated, for the
	// Verify proof obligation.
	touched []string
}

// Touched returns the names of every activity the pass created or rewrote,
// in deterministic (declaration) order.
func (r *ExpansionReport) Touched() []string {
	return append([]string(nil), r.touched...)
}

// Verify is the analyzer rule behind the expansion's proof obligation: every
// activity the pass created or rewrote must exist in m and carry a fixed
// memoryless delay. ExpandPhases runs it before returning, and callers that
// hand the expanded model to a solver may re-run it as a defense-in-depth
// check (statespace.Certify additionally re-proves memorylessness over every
// reachable marking, so an unsound expansion cannot reach the solver even if
// this rule were wrong).
func (r *ExpansionReport) Verify(m *Model) error {
	for _, name := range r.touched {
		a := m.Activity(name)
		if a == nil {
			return fmt.Errorf("%w: expanded activity %q missing from model", ErrExpansionUnsound, name)
		}
		if reason := DelayLumpability(fmt.Sprintf("activity %q", name), a.fixedDelay); reason != "" {
			return fmt.Errorf("%w: %s", ErrExpansionUnsound, reason)
		}
	}
	return nil
}

// PhaseExpandable reports whether d has an exact finite representation as a
// chain of exponential phases, and with how many. Erlang (integer-shape
// Gamma) expands into shape stages; a Sum expands into the concatenation of
// its parts' stages when every part expands; exponentials (including the
// shape-1 Weibull and shape-1 Gamma) are a single stage. Uniform windows,
// deterministic timers, Weibull wear-out, and non-integer Gamma shapes have
// no exact finite phase-type form.
func PhaseExpandable(d dist.Distribution) (int, bool) {
	rates, ok := phaseRates(d)
	return len(rates), ok
}

// phaseRates flattens d into its exact exponential stage rates, in the order
// the stages elapse.
func phaseRates(d dist.Distribution) ([]float64, bool) {
	if rate, ok := MemorylessRate(d); ok {
		return []float64{rate}, true
	}
	switch v := d.(type) {
	case dist.Gamma:
		k := math.Round(v.Shape())
		if k < 1 || math.Abs(v.Shape()-k) > integerShapeTol {
			return nil, false
		}
		rates := make([]float64, int(k))
		for i := range rates {
			rates[i] = 1 / v.Scale()
		}
		return rates, true
	case dist.Sum:
		var rates []float64
		for _, part := range v.Parts() {
			pr, ok := phaseRates(part)
			if !ok {
				return nil, false
			}
			rates = append(rates, pr...)
		}
		return rates, true
	default:
		return nil, false
	}
}

// staticMarking adapts a token vector to MarkingReader for evaluating
// marking-dependent closures at a fixed marking.
type staticMarking []int

func (sm staticMarking) Tokens(p *Place) int {
	if p == nil || p.index < 0 || p.index >= len(sm) {
		return 0
	}
	return sm[p.index]
}

// chainStability answers the stable-enabling proof a multi-stage chain
// rewrite needs: no other activity consumes from, and no gate transform
// writes, any of the rewritten activity's input places. The facts are those
// of the model as it stood when the pass began, before any rewrite added
// places, activities or gates. The gate transforms' writes come from the
// closure probe (probe.go), run only when the first chain asks, because the
// probe is the pass's dominant cost and most non-memoryless delays never
// reach a multi-stage chain. A transform that panics at some base leaves its
// writes unknown, and every chain is then refused.
type chainStability struct {
	consumers  []int      // input-arc consumers per place
	initial    []int      // initial marking, the probe's base
	transforms []GateFunc // every input- and output-gate transform
	gates      *footprint // nil until a chain first needs the proof
}

func newChainStability(m *Model) *chainStability {
	s := &chainStability{consumers: make([]int, len(m.places)), initial: m.InitialMarking()}
	for _, a := range m.activities {
		for _, arc := range a.inputArcs {
			s.consumers[arc.Place.index]++
		}
		for _, g := range a.inputGates {
			if g.Transform != nil {
				s.transforms = append(s.transforms, g.Transform)
			}
		}
		for _, c := range a.cases {
			for _, og := range c.OutputGates {
				if og.Transform != nil {
					s.transforms = append(s.transforms, og.Transform)
				}
			}
		}
	}
	return s
}

// refusal returns why a's enabling cannot be proven stable across a chain,
// or "" when it can.
func (s *chainStability) refusal(a *Activity) string {
	if len(a.inputArcs) == 0 {
		return ""
	}
	if s.gates == nil {
		s.gates = NewProbe(s.initial).footprint(s.transforms)
	}
	if s.gates.opaque {
		return "a gate transform is unanalyzable, so enabling stability cannot be proven"
	}
	for _, arc := range a.inputArcs {
		if s.consumers[arc.Place.index] > 1 {
			return fmt.Sprintf("input place %q has other consumers, so enabling stability cannot be proven", arc.Place.name)
		}
		if s.gates.writes[arc.Place.index] {
			return fmt.Sprintf("input place %q is written by a gate transform, so enabling stability cannot be proven", arc.Place.name)
		}
	}
	return ""
}

// ExpandPhases returns a copy of m in which every timed activity whose delay
// has an exact finite phase-type form (Erlang, sum of exponential stages) is
// rewritten into a chain of per-phase exponential activities, and reports
// classified refusals for every non-memoryless delay it had to leave alone.
// m itself is left untouched, so it may already be compiled; the returned
// report carries the per-activity evidence to append to the solver
// certificate.
//
// Every activity classifies via DelayLumpability first: memoryless delays
// are untouched, and non-memoryless delays either expand exactly or produce
// a RefusalNonExpandable reason naming the distribution or the structural
// precondition that failed. The pass never changes the distribution of any
// observable quantity — see the exactness argument at the top of this file.
func ExpandPhases(m *Model) (*Model, *ExpansionReport, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, fmt.Errorf("san: expand phases: %w", err)
	}
	report := &ExpansionReport{}
	stable := newChainStability(m)
	m = m.rewriteCopy()

	refuse := func(a *Activity, format string, args ...any) {
		report.Refusals = append(report.Refusals, fmt.Sprintf(
			"%s: activity %q: %s", RefusalNonExpandable, a.name, fmt.Sprintf(format, args...)))
	}

	// The range evaluates m.activities once, so the stage activities the
	// rewrite appends are not themselves revisited.
	for _, a := range m.activities {
		if a.kind != Timed {
			continue
		}
		d := a.fixedDelay
		if d == nil {
			// Marking-dependent delay (AddTimedActivityFunc): nothing static
			// to expand. Memoryless-at-initial-marking delays (the lumped
			// aggregate activities) are the certificate tier's business;
			// anything else is refused here with the classification.
			if reason := delayLumpabilityAt(a, m.InitialMarking()); reason != "" {
				refuse(a, "marking-dependent delay is not statically expandable (%s)", reason)
			}
			continue
		}
		if DelayLumpability("delay", d) == "" {
			continue // already memoryless
		}
		rates, ok := phaseRates(d)
		if !ok {
			refuse(a, "%s has no exact finite phase-type form", dist.Describe(d))
			continue
		}
		if len(rates) > maxExpansionPhases {
			refuse(a, "%s needs %d phases, beyond the %d-phase budget",
				dist.Describe(d), len(rates), maxExpansionPhases)
			continue
		}
		// Structural preconditions for exactness (see the argument above).
		// A single-stage rewrite swaps the delay for a literally identical
		// exponential, so stability of enabling is irrelevant there.
		if len(rates) > 1 {
			if a.reactivate {
				refuse(a, "reactivation resamples the whole %s on marking changes; a phase chain cannot", dist.Describe(d))
				continue
			}
			if len(a.inputGates) > 0 {
				refuse(a, "input-gate enabling cannot be proven stable across the phase chain")
				continue
			}
			if reason := stable.refusal(a); reason != "" {
				refuse(a, "%s", reason)
				continue
			}
		}
		if err := expandActivity(m, a, rates); err != nil {
			return nil, nil, err
		}
		report.Expanded = append(report.Expanded, fmt.Sprintf(
			"activity %q: %s expanded into %d exponential phase(s) at rates %s",
			a.name, dist.Describe(d), len(rates), formatRates(rates)))
		report.touched = append(report.touched, a.name)
		for i := 1; i < len(rates); i++ {
			report.touched = append(report.touched, phaseName(a.name, i))
		}
	}
	if err := report.Verify(m); err != nil {
		return nil, nil, err
	}
	return m, report, nil
}

// delayLumpabilityAt classifies a marking-dependent delay at a fixed
// marking, converting evaluation panics into a non-memoryless verdict.
func delayLumpabilityAt(a *Activity, marking []int) (reason string) {
	ok := guard(func() {
		reason = DelayLumpability("delay at the initial marking", a.DelayAt(staticMarking(marking)))
	})
	if !ok {
		reason = fmt.Sprintf("%s: delay evaluation panicked at the initial marking", ReasonNonExponential)
	}
	return reason
}

// expandActivity performs the chain rewrite for one activity: fresh phase
// places, one gate-guarded first stage, pass-through middle stages, and the
// original activity — delay swapped for the final exponential stage — as the
// chain's last link.
func expandActivity(m *Model, a *Activity, rates []float64) error {
	stageDelay := func(rate float64) (dist.Distribution, error) {
		e, err := dist.NewExponentialFromRate(rate)
		if err != nil {
			return nil, fmt.Errorf("san: expand phases: activity %q: %w", a.name, err)
		}
		return e, nil
	}
	k := len(rates)
	last, err := stageDelay(rates[k-1])
	if err != nil {
		return err
	}
	if k == 1 {
		a.delay = func(MarkingReader) dist.Distribution { return last }
		a.fixedDelay = last
		return nil
	}
	phases := make([]*Place, k-1)
	for i := range phases {
		p, err := m.AddPlaceErr(phaseName(a.name, i+1), 0)
		if err != nil {
			return fmt.Errorf("san: expand phases: %w", err)
		}
		phases[i] = p
	}
	// Stage 1 starts the chain exactly when the original activity would have
	// become enabled: all input arcs satisfied (checked, not consumed — the
	// tokens stay put until the final stage completes) and no phase pending.
	arcs := append([]Arc(nil), a.inputArcs...)
	reads := make([]*Place, 0, len(arcs)+len(phases))
	for _, arc := range arcs {
		reads = append(reads, arc.Place)
	}
	reads = append(reads, phases...)
	first, err := stageDelay(rates[0])
	if err != nil {
		return err
	}
	m.AddTimedActivity(phaseName(a.name, 1), first).
		AddInputGate(&InputGate{
			Name:  phaseName(a.name, 1) + "/ig",
			Reads: reads,
			Enabled: func(mr MarkingReader) bool {
				for _, arc := range arcs {
					if mr.Tokens(arc.Place) < arc.Mult {
						return false
					}
				}
				for _, p := range phases {
					if mr.Tokens(p) > 0 {
						return false
					}
				}
				return true
			},
		}).
		AddOutputArc(phases[0], 1)
	for i := 2; i < k; i++ {
		mid, err := stageDelay(rates[i-1])
		if err != nil {
			return err
		}
		m.AddTimedActivity(phaseName(a.name, i), mid).
			AddInputArc(phases[i-2], 1).
			AddOutputArc(phases[i-1], 1)
	}
	a.AddInputArc(phases[k-2], 1)
	a.delay = func(MarkingReader) dist.Distribution { return last }
	a.fixedDelay = last
	return nil
}

// phaseName names the i-th stage activity (and its feeding phase place) of
// an expanded activity.
func phaseName(activity string, i int) string {
	return fmt.Sprintf("%s/phase%d", activity, i)
}

// formatRates renders stage rates compactly for evidence strings.
func formatRates(rates []float64) string {
	out := ""
	for i, r := range rates {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%g/h", r)
	}
	return "[" + out + "]"
}
