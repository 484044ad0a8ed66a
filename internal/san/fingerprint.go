package san

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"repro/internal/dist"
)

// This file computes the content fingerprint of a compiled model: a canonical
// hash over everything that determines the model's stochastic behavior —
// places, activities, arcs, gates, delay distribution specs, case
// probabilities, impulse and rate rewards, and the initial marking. Two
// compiled models with equal fingerprints describe the same chain, whatever
// built them. Computing one probes every closure of the model, so it is a
// diagnostic, not a cache key: the sweep's solve cache keys on the point's
// abe.Config, the only input abe.Build reads (see docs/determinism.md,
// "The solve-cache rule").
//
// Closures (gate predicates and transforms, marking-dependent delays, case
// probabilities, reward functions) have no inspectable structure, so they are
// fingerprinted behaviorally: each closure is executed against an
// instrumented marking to discover the places it reads, then evaluated on a
// deterministic family of probe markings — the analyzer's base markings plus
// single-place perturbations of every place the closure reads — and the
// observed outputs are hashed. The probe family is fixed, so the fingerprint
// never depends on execution details (scheduling, parallelism, prior calls),
// only on model content. Closures that differ only on markings outside the
// probe family can alias; the family covers the token counts (0, initial, 1,
// 2, and per-read-place bumps) that the repository's gate and reward logic
// branches on.

// Fingerprint returns the canonical content hash of the compiled model as a
// hex string. It is deterministic across processes (no map iteration order,
// no pointers, no wall clock reaches the hash) and changes when any place,
// activity, arc, gate, delay spec, case probability, impulse, reward, or the
// initial marking changes.
func (cm *CompiledModel) Fingerprint() string {
	w := &fpWriter{h: sha256.New()}
	model := cm.model
	probes := fingerprintProbes(cm.initial)

	w.str("places")
	w.num(model.NumPlaces())
	for _, p := range model.places {
		w.str(p.name)
		w.num(p.initial)
	}

	w.str("initial")
	for _, n := range cm.initial {
		w.num(n)
	}

	w.str("activities")
	w.num(model.NumActivities())
	for _, a := range model.activities {
		w.str(a.name)
		w.num(int(a.kind))
		w.bool(a.reactivate)
		w.str("input-arcs")
		for _, arc := range a.inputArcs {
			w.num(arc.Place.index)
			w.num(arc.Mult)
		}
		w.str("input-gates")
		for _, g := range a.inputGates {
			w.str(g.Name)
			for _, p := range g.Reads {
				w.num(p.index)
			}
			w.str("enabled")
			if g.Enabled != nil {
				pred := g.Enabled
				w.probeFloat(probes, func(pm *probeMarking) float64 {
					if pred(pm) {
						return 1
					}
					return 0
				})
			}
			w.str("transform")
			if g.Transform != nil {
				w.probeTransform(probes, g.Transform)
			}
		}
		w.str("delay")
		w.delaySpec(a, probes)
		w.str("cases")
		w.num(len(a.cases))
		for _, c := range a.cases {
			w.str("prob")
			if c.Probability != nil {
				prob := c.Probability
				w.probeFloat(probes, func(pm *probeMarking) float64 { return prob(pm) })
			}
			w.str("output-arcs")
			for _, arc := range c.OutputArcs {
				w.num(arc.Place.index)
				w.num(arc.Mult)
			}
			w.str("output-gates")
			for _, og := range c.OutputGates {
				if og == nil {
					w.str("<nil>")
					continue
				}
				w.str(og.Name)
				if og.Transform != nil {
					w.probeTransform(probes, og.Transform)
				}
			}
		}
	}

	w.str("rewards")
	w.num(len(cm.rewards))
	for _, rv := range cm.rewards {
		w.str(rv.Name)
		w.num(int(rv.Mode))
		w.str("rate")
		if rv.Rate != nil {
			rate := rv.Rate
			w.probeFloat(probes, func(pm *probeMarking) float64 { return rate(pm) })
		}
		w.str("impulses")
		for _, actName := range sortedKeys(rv.Impulses) {
			w.str(actName)
			fn := rv.Impulses[actName]
			w.probeFloat(probes, func(pm *probeMarking) float64 { return fn(pm) })
		}
	}

	return hex.EncodeToString(w.h.Sum(nil))
}

// fpWriter hashes length-prefixed tokens so distinct token sequences can
// never collide by concatenation.
type fpWriter struct {
	h   hash.Hash
	buf [10]byte
}

// write feeds bytes to the digest. hash.Hash.Write is documented to never
// return an error; panicking makes that impossibility explicit instead of
// discarding it.
func (w *fpWriter) write(b []byte) {
	if _, err := w.h.Write(b); err != nil {
		panic(err)
	}
}

func (w *fpWriter) str(s string) {
	binary.LittleEndian.PutUint64(w.buf[:8], uint64(len(s)))
	w.write(w.buf[:8])
	w.write([]byte(s))
}

func (w *fpWriter) num(n int) {
	binary.LittleEndian.PutUint64(w.buf[:8], uint64(int64(n)))
	w.write(w.buf[:8])
}

func (w *fpWriter) float(f float64) {
	binary.LittleEndian.PutUint64(w.buf[:8], math.Float64bits(f))
	w.write(w.buf[:8])
}

func (w *fpWriter) bool(b bool) {
	if b {
		w.num(1)
	} else {
		w.num(0)
	}
}

// fingerprintProbes builds the deterministic probe markings closures are
// evaluated against: the analyzer's base markings (all-zero, initial, all-one,
// all-two) plus, for read-set sensitivity, per-place bumps of the initial
// marking. The per-place bumps are applied lazily per closure — only to the
// places the closure actually reads — so fingerprinting stays linear in model
// size even for models with thousands of places.
type fpProbes struct {
	bases   [][]int
	initial []int
}

func fingerprintProbes(initial []int) *fpProbes {
	return &fpProbes{bases: baseMarkings(initial), initial: initial}
}

// run evaluates fn on every base marking, discovers the closure's read set,
// and then re-evaluates it on per-read-place perturbations of the initial
// marking. record receives every observation in a deterministic order; a
// panicking evaluation records a fixed marker instead.
func (p *fpProbes) run(eval func(pm *probeMarking) (float64, bool), record func(v float64, panicked bool)) {
	n := len(p.initial)
	reads := make([]bool, n)
	evalAt := func(tokens []int) {
		pm := &probeMarking{tokens: tokens, reads: make([]bool, n), writes: make([]bool, n)}
		v, ok := eval(pm)
		record(v, !ok)
		for i, r := range pm.reads {
			reads[i] = reads[i] || r
		}
	}
	for _, base := range p.bases {
		evalAt(append([]int(nil), base...))
	}
	// Per-read-place sensitivity: bump each place the closure read, one at a
	// time, in place-index order.
	for pi := 0; pi < n; pi++ {
		if !reads[pi] {
			continue
		}
		for _, bump := range []int{1, 3} {
			tokens := append([]int(nil), p.initial...)
			tokens[pi] += bump
			evalAt(tokens)
		}
	}
}

// probeFloat hashes the observed outputs of a float-valued closure over the
// probe family.
func (w *fpWriter) probeFloat(probes *fpProbes, fn func(pm *probeMarking) float64) {
	probes.run(
		func(pm *probeMarking) (v float64, ok bool) {
			defer func() {
				if recover() != nil {
					ok = false
				}
			}()
			return fn(pm), true
		},
		func(v float64, panicked bool) {
			if panicked {
				w.str("panic")
				return
			}
			w.float(v)
		},
	)
}

// probeTransform hashes the marking deltas a gate transform produces over the
// probe family: the set of written places and their resulting token counts.
func (w *fpWriter) probeTransform(probes *fpProbes, fn GateFunc) {
	probes.run(
		func(pm *probeMarking) (v float64, ok bool) {
			defer func() {
				if recover() != nil {
					ok = false
				}
			}()
			fn(pm)
			// Fold the post-transform marking of written places into one
			// deterministic observation stream via the writer callback; the
			// scalar return is unused for transforms.
			for pi, written := range pm.writes {
				if written {
					w.num(pi)
					w.num(pm.tokens[pi])
				}
			}
			return 0, true
		},
		func(v float64, panicked bool) {
			if panicked {
				w.str("panic")
				return
			}
			w.str("|")
		},
	)
}

// delaySpec hashes a timed activity's delay specification. A fixed delay
// (AddTimedActivity) hashes its distribution spec directly; a
// marking-dependent delay (AddTimedActivityFunc) is probed like any other
// closure, hashing the distribution spec observed at every probe marking.
func (w *fpWriter) delaySpec(a *Activity, probes *fpProbes) {
	if a.kind != Timed {
		return
	}
	if d := a.fixedDelay; d != nil {
		w.str("fixed")
		w.str(distSpec(d))
		return
	}
	if a.delay == nil {
		w.str("<nil>")
		return
	}
	w.str("func")
	delay := a.delay
	probes.run(
		func(pm *probeMarking) (v float64, ok bool) {
			defer func() {
				if recover() != nil {
					ok = false
				}
			}()
			w.str(distSpec(delay(pm)))
			return 0, true
		},
		func(v float64, panicked bool) {
			if panicked {
				w.str("panic")
				return
			}
			w.str("|")
		},
	)
}

// distSpec renders a distribution's canonical spec string: the family name
// with its sorted parameters, the same rendering dist.Describe uses for
// reports.
func distSpec(d dist.Distribution) string {
	if d == nil {
		return "<nil>"
	}
	return dist.Describe(d)
}
