package san

// This file is the closure probe, the one place the structural passes run a
// model's closures outside a firing: Analyze, the chain-stability proof of
// ExpandPhases and FitPhases, Fingerprint, Validate's static case-sum check,
// and the incidence matrix of internal/statespace. Closures (gate predicates
// and transforms, marking-dependent delays, case probabilities, rewards)
// have no inspectable structure, so a pass learns what one reads, writes and
// changes by running it on a fixed family of synthetic markings
// (probeFamily). Every run is on one recording marking, reset for each base
// and never clamped, inside the one recover the passes share (guard). What a
// panic means is each pass's own policy, and a branch that no base reaches
// is missed: docs/statespace.md, "Closure probing", has both.

// guard runs fn and reports whether it returned without panicking. It is the
// one recover the structural passes put around model closures, which may
// assume invariants a synthetic marking breaks.
func guard(fn func()) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	fn()
	return true
}

// probeFamily returns the probe base family of initial marking m0, in the
// order every pass visits it: all-zero, M0, M0+1, M0+2, all-one and all-two.
// The spread reaches the branches the repository's closures take on empty,
// initial, shifted and saturated places, such as "decrement, then act when
// the count hits zero" at all-one.
func probeFamily(m0 []int) [][]int {
	bases := make([][]int, 6)
	for b := range bases {
		bases[b] = make([]int, len(m0))
	}
	for i, v := range m0 {
		bases[1][i], bases[2][i], bases[3][i], bases[4][i], bases[5][i] = v, v+1, v+2, 1, 2
	}
	return bases
}

// Probe is the recording marking closures run on: the token vector of the
// current run and the places the run read and wrote, over the base family
// of one initial marking. Token counts may go negative; the probe never
// clamps. A Probe is not safe for concurrent use.
type Probe struct {
	m0     []int
	bases  [][]int
	tokens []int
	reads  []bool
	writes []bool
	seen   []bool // observe's places read at some run
}

// NewProbe returns a probe over the base family of initial marking m0.
func NewProbe(m0 []int) *Probe {
	n := len(m0)
	return &Probe{
		m0: m0, bases: probeFamily(m0),
		tokens: make([]int, n), reads: make([]bool, n), writes: make([]bool, n), seen: make([]bool, n),
	}
}

// owns reports whether pl indexes the probe's marking; a place of another
// model reads as empty and writes are dropped.
func (p *Probe) owns(pl *Place) bool { return pl != nil && pl.index >= 0 && pl.index < len(p.tokens) }

// Tokens implements MarkingReader, recording the read.
func (p *Probe) Tokens(pl *Place) int {
	if !p.owns(pl) {
		return 0
	}
	p.reads[pl.index] = true
	return p.tokens[pl.index]
}

// SetTokens implements MarkingWriter, recording the write.
func (p *Probe) SetTokens(pl *Place, n int) {
	if p.owns(pl) {
		p.writes[pl.index] = true
		p.tokens[pl.index] = n
	}
}

// Add implements MarkingWriter, recording the write but not a read, so a
// place that closures only ever increment stays unread for Analyze.
func (p *Probe) Add(pl *Place, delta int) {
	if p.owns(pl) {
		p.writes[pl.index] = true
		p.tokens[pl.index] += delta
	}
}

// reset loads marking into the recording marking and clears its records.
func (p *Probe) reset(marking []int) {
	copy(p.tokens, marking)
	clear(p.reads)
	clear(p.writes)
}

// call runs fn on the recording marking under guard.
func (p *Probe) call(fn GateFunc) bool { return guard(func() { fn(p) }) }

// footprint is the union of the places some closures read and wrote over
// the base family. opaque records that one of them panicked at some base: its
// accesses are unknown, and the union holds only what ran before the panic.
type footprint struct {
	reads, writes []bool
	opaque        bool
}

// footprint runs every closure at every base, a closure's runs stopping at
// its first panic, and returns the union of what they read and wrote.
func (p *Probe) footprint(closures []GateFunc) *footprint {
	fp := &footprint{reads: make([]bool, len(p.m0)), writes: make([]bool, len(p.m0))}
	for _, fn := range closures {
		for _, base := range p.bases {
			p.reset(base)
			if !p.call(fn) {
				fp.opaque = true
				break
			}
			for i := range fp.reads {
				fp.reads[i] = fp.reads[i] || p.reads[i]
				fp.writes[i] = fp.writes[i] || p.writes[i]
			}
		}
	}
	return fp
}

// observe runs fn at every base, then at M0 with each place fn has read in
// some run bumped by 1 and then by 3, in place-index order, and calls record
// after every run with whether fn completed. record may inspect the run's
// recording marking. The bumps expose read-set sensitivity while keeping
// the runs linear in the places a closure reads.
func (p *Probe) observe(fn GateFunc, record func(ok bool)) {
	clear(p.seen)
	note := func(ok bool) {
		record(ok)
		for i, r := range p.reads {
			p.seen[i] = p.seen[i] || r
		}
	}
	for _, base := range p.bases {
		p.reset(base)
		note(p.call(fn))
	}
	for pi := range p.seen {
		if !p.seen[pi] {
			continue
		}
		for _, bump := range [...]int{1, 3} {
			p.reset(p.m0)
			p.tokens[pi] += bump
			note(p.call(fn))
		}
	}
}

// GateEffect is what the probe learns of one gate transform's token effect
// over the base family.
type GateEffect struct {
	// Delta is the token change per place at the first base the transform
	// completed at.
	Delta []int
	// Touched marks the places the transform wrote at some base.
	Touched []bool
	// Constant reports that the change was Delta at every base the
	// transform completed at.
	Constant bool
	// PanickedSome reports that the transform panicked at some bases and
	// completed at others. PanickedAll reports that it completed at none;
	// Delta and Touched are then nil.
	PanickedSome, PanickedAll bool
}

// GateEffect runs the transform f at every base and classifies its effect.
func (p *Probe) GateEffect(f GateFunc) GateEffect {
	e := GateEffect{Touched: make([]bool, len(p.m0)), Constant: true}
	for _, base := range p.bases {
		p.reset(base)
		if !p.call(f) {
			e.PanickedSome = true
			continue
		}
		first := e.Delta == nil
		if first {
			e.Delta = make([]int, len(base))
		}
		for i, v := range p.tokens {
			if d := v - base[i]; first {
				e.Delta[i] = d
			} else if d != e.Delta[i] {
				e.Constant = false
			}
			e.Touched[i] = e.Touched[i] || p.writes[i]
		}
	}
	if e.Delta == nil {
		return GateEffect{PanickedAll: true}
	}
	return e
}
