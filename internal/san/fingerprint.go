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
// fingerprinted behaviorally on the closure probe (probe.go): each closure is
// run at every probe base (all-zero, initial, initial+1, initial+2, all-one,
// all-two) and then at single-place bumps of the initial marking for every
// place it reads, and the observed outputs are hashed, with a fixed marker
// where it panics. The probe family is fixed, so the fingerprint never
// depends on execution details (scheduling, parallelism, prior calls), only
// on model content. Closures that differ only on markings outside the probe
// family can alias.

// Fingerprint returns the canonical content hash of the compiled model as a
// hex string. It is deterministic across processes (no map iteration order,
// no pointers, no wall clock reaches the hash) and changes when any place,
// activity, arc, gate, delay spec, case probability, impulse, reward, or the
// initial marking changes.
func (cm *CompiledModel) Fingerprint() string {
	w := &fpWriter{h: sha256.New(), probe: NewProbe(cm.initial)}
	model := cm.model

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
				w.probeFloat(func(r MarkingReader) float64 {
					if pred(r) {
						return 1
					}
					return 0
				})
			}
			w.str("transform")
			if g.Transform != nil {
				w.probeTransform(g.Transform)
			}
		}
		w.str("delay")
		w.delaySpec(a)
		w.str("cases")
		w.num(len(a.cases))
		for _, c := range a.cases {
			w.str("prob")
			if c.Probability != nil {
				w.probeFloat(c.Probability)
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
					w.probeTransform(og.Transform)
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
			w.probeFloat(rv.Rate)
		}
		w.str("impulses")
		for _, actName := range sortedKeys(rv.Impulses) {
			w.str(actName)
			w.probeFloat(rv.Impulses[actName])
		}
	}

	return hex.EncodeToString(w.h.Sum(nil))
}

// fpWriter hashes length-prefixed tokens so distinct token sequences can
// never collide by concatenation, and runs closures on its probe.
type fpWriter struct {
	h     hash.Hash
	buf   [10]byte
	probe *Probe
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

// observe hashes fn's behavior over the probe family: after every run, hash
// writes what the run produced, or the marker "panic" stands in for it.
func (w *fpWriter) observe(fn GateFunc, hash func()) {
	w.probe.observe(fn, func(ok bool) {
		if !ok {
			w.str("panic")
			return
		}
		hash()
	})
}

// probeFloat hashes the outputs of a float-valued closure over the probe
// family.
func (w *fpWriter) probeFloat(fn func(MarkingReader) float64) {
	var v float64
	w.observe(func(m MarkingWriter) { v = fn(m) }, func() { w.float(v) })
}

// probeTransform hashes the marking deltas a gate transform produces over the
// probe family: the set of written places and their resulting token counts.
func (w *fpWriter) probeTransform(fn GateFunc) {
	pr := w.probe
	w.observe(fn, func() {
		for _, pi := range pr.written() {
			w.num(pi)
			w.num(pr.at(pi))
		}
		w.str("|")
	})
}

// delaySpec hashes a timed activity's delay specification. A fixed delay
// (AddTimedActivity) hashes its distribution spec directly; a
// marking-dependent delay (AddTimedActivityFunc) is probed like any other
// closure, hashing the distribution spec observed at every probe marking.
func (w *fpWriter) delaySpec(a *Activity) {
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
	var spec string
	w.observe(func(m MarkingWriter) { spec = distSpec(delay(m)) }, func() {
		w.str(spec)
		w.str("|")
	})
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
