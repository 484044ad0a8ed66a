package san

import "slices"

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

// Probe is the recording marking closures run on: the current run's base
// marking, the token counts the run wrote, and the places it read and
// wrote, over the base family of one initial marking. A run reads untouched
// places from its base, and resetting or folding a run visits only the
// places it touched, so a run costs what the closure touches, not the
// model's place count. Token counts may go negative; the probe never
// clamps. A Probe is not safe for concurrent use.
type Probe struct {
	m0      []int
	bases   [][]int
	base    []int   // the current run's base marking
	tokens  []int   // the run's token counts, valid where it wrote
	flags   []uint8 // per place: probeRead, probeWritten
	touched []int   // the places the run read or wrote, in first-touch order
	seen    []bool  // observe's places to bump: read at some run
	pending []int   // those places, ascending
	sorted  []int   // written's scratch
}

// The per-place records of a run.
const (
	probeRead uint8 = 1 << iota
	probeWritten
)

// NewProbe returns a probe over the base family of initial marking m0.
func NewProbe(m0 []int) *Probe {
	n := len(m0)
	bases := probeFamily(m0)
	return &Probe{
		m0: m0, bases: bases, base: bases[0],
		tokens: make([]int, n), flags: make([]uint8, n), seen: make([]bool, n),
	}
}

// owns reports whether pl indexes the probe's marking; a place of another
// model reads as empty and writes are dropped.
func (p *Probe) owns(pl *Place) bool { return pl != nil && pl.index >= 0 && pl.index < len(p.tokens) }

// touch adds record f to place i.
func (p *Probe) touch(i int, f uint8) {
	if p.flags[i] == 0 {
		p.touched = append(p.touched, i)
	}
	p.flags[i] |= f
}

// at returns place i's token count in the current run.
func (p *Probe) at(i int) int {
	if p.flags[i]&probeWritten != 0 {
		return p.tokens[i]
	}
	return p.base[i]
}

// Tokens implements MarkingReader, recording the read.
func (p *Probe) Tokens(pl *Place) int {
	if !p.owns(pl) {
		return 0
	}
	p.touch(pl.index, probeRead)
	return p.at(pl.index)
}

// SetTokens implements MarkingWriter, recording the write.
func (p *Probe) SetTokens(pl *Place, n int) {
	if p.owns(pl) {
		p.touch(pl.index, probeWritten)
		p.tokens[pl.index] = n
	}
}

// Add implements MarkingWriter, recording the write but not a read, so a
// place that closures only ever increment stays unread for Analyze.
func (p *Probe) Add(pl *Place, delta int) {
	if p.owns(pl) {
		n := p.at(pl.index) + delta
		p.touch(pl.index, probeWritten)
		p.tokens[pl.index] = n
	}
}

// reset starts a run on base, clearing the previous run's records.
func (p *Probe) reset(base []int) {
	for _, i := range p.touched {
		p.flags[i] = 0
	}
	p.touched = p.touched[:0]
	p.base = base
}

// written returns the places the run wrote, ascending.
func (p *Probe) written() []int {
	p.sorted = p.sorted[:0]
	for _, i := range p.touched {
		if p.flags[i]&probeWritten != 0 {
			p.sorted = append(p.sorted, i)
		}
	}
	slices.Sort(p.sorted)
	return p.sorted
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
			for _, i := range p.touched {
				fp.reads[i] = fp.reads[i] || p.flags[i]&probeRead != 0
				fp.writes[i] = fp.writes[i] || p.flags[i]&probeWritten != 0
			}
		}
	}
	return fp
}

// observe runs fn at every base, then at M0 with each place fn has read in
// some run bumped by 1 and then by 3, in place-index order, and calls record
// after every run with whether fn completed. record may inspect the run's
// recording marking. A place first read during the bumps is bumped too when
// its index is above the place being bumped, as an ascending scan over every
// place would find it. The bumps expose read-set sensitivity while keeping
// the runs linear in the places a closure reads.
func (p *Probe) observe(fn GateFunc, record func(ok bool)) {
	for _, i := range p.pending {
		p.seen[i] = false
	}
	p.pending = p.pending[:0]
	// note records a run and queues the places it read above after.
	note := func(ok bool, after int) {
		record(ok)
		for _, i := range p.touched {
			if p.flags[i]&probeRead == 0 || p.seen[i] || i <= after {
				continue
			}
			p.seen[i] = true
			k, _ := slices.BinarySearch(p.pending, i)
			p.pending = slices.Insert(p.pending, k, i)
		}
	}
	for _, base := range p.bases {
		p.reset(base)
		note(p.call(fn), -1)
	}
	m0 := p.bases[1] // the probe's own copy of M0, bumped in place
	for j := 0; j < len(p.pending); j++ {
		pi := p.pending[j]
		for _, bump := range [...]int{1, 3} {
			m0[pi] += bump
			p.reset(m0)
			note(p.call(fn), pi)
			m0[pi] -= bump
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
	var changed []int // the places of a nonzero Delta
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
		// An unwritten place keeps its base count: its change is zero.
		for _, i := range p.touched {
			if p.flags[i]&probeWritten == 0 {
				continue
			}
			e.Touched[i] = true
			if d := p.tokens[i] - base[i]; first {
				e.Delta[i] = d
				if d != 0 {
					changed = append(changed, i)
				}
			} else if d != e.Delta[i] {
				e.Constant = false
			}
		}
		for _, i := range changed {
			if p.flags[i]&probeWritten == 0 {
				e.Constant = false
			}
		}
	}
	if e.Delta == nil {
		return GateEffect{PanickedAll: true}
	}
	return e
}
