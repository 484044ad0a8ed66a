// Package rng provides deterministic, splittable pseudo-random number
// streams for the simulation engine.
//
// The package implements the xoshiro256** generator seeded through
// SplitMix64. Each model component draws from its own Stream so that
// experiments are reproducible and so that changing the event ordering in
// one component does not perturb the random sequence consumed by another
// (common random numbers across design alternatives).
package rng

import (
	"errors"
	"fmt"
	"math"
)

// golden is the 64-bit golden-ratio increment used by SplitMix64.
const golden = 0x9e3779b97f4a7c15

// Stream is a single pseudo-random number stream. It is NOT safe for
// concurrent use; create one Stream per goroutine or per model component.
//
// The zero value is not usable; construct streams with NewStream or
// Stream.Split.
type Stream struct {
	state [4]uint64
	label string
}

// ErrDegenerateSeed is returned when seeding produces an all-zero state,
// which xoshiro256** cannot escape.
var ErrDegenerateSeed = errors.New("rng: degenerate all-zero state")

// splitMix64 advances the SplitMix64 state and returns the next value.
func splitMix64(state *uint64) uint64 {
	*state += golden
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewStream returns a Stream seeded from seed. Distinct seeds yield
// statistically independent sequences. The label is used only for
// diagnostics (Stream.String).
func NewStream(seed uint64, label string) *Stream {
	s := &Stream{label: label}
	sm := seed
	for i := range s.state {
		s.state[i] = splitMix64(&sm)
	}
	// SplitMix64 cannot produce four consecutive zeros from any seed, but we
	// keep the guard so that manual state injection cannot wedge the stream.
	if s.state[0]|s.state[1]|s.state[2]|s.state[3] == 0 {
		s.state[0] = golden
	}
	return s
}

// Split derives a new, statistically independent Stream from s without
// disturbing the sequence that s itself will produce. It is the mechanism by
// which a model hands private streams to each of its components.
func (s *Stream) Split(label string) *Stream {
	// Derive the child seed from a dedicated draw so parent and child do not
	// share any future state.
	seed := s.Uint64() ^ golden
	child := NewStream(seed, label)
	return child
}

// String identifies the stream for diagnostics.
func (s *Stream) String() string {
	return fmt.Sprintf("rng.Stream(%s)", s.label)
}

// Label returns the diagnostic label supplied at construction.
func (s *Stream) Label() string { return s.label }

func rotl(x uint64, k uint) uint64 {
	return (x << k) | (x >> (64 - k))
}

// Uint64 returns the next 64 uniformly distributed bits (xoshiro256**).
func (s *Stream) Uint64() uint64 {
	result := rotl(s.state[1]*5, 7) * 9

	t := s.state[1] << 17
	s.state[2] ^= s.state[0]
	s.state[3] ^= s.state[1]
	s.state[1] ^= s.state[2]
	s.state[0] ^= s.state[3]
	s.state[2] ^= t
	s.state[3] = rotl(s.state[3], 45)

	return result
}

// Float64 returns a uniform value in the half-open interval [0, 1) with 53
// bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// OpenFloat64 returns a uniform value in the open interval (0, 1). It is the
// right primitive for inverse-transform sampling of distributions whose
// quantile function diverges at 0 or 1 (e.g. the exponential at u=1).
func (s *Stream) OpenFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 && u < 1 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, mirroring
// math/rand.Intn.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(s.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, bound) using Lemire's
// nearly-divisionless rejection method.
func (s *Stream) boundedUint64(bound uint64) uint64 {
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32

	t := aLo * bLo
	w0 := t & mask32
	k := t >> 32

	t = aHi*bLo + k
	w1 := t & mask32
	w2 := t >> 32

	t = aLo*bHi + w1
	k = t >> 32

	hi = aHi*bHi + w2 + k
	lo = (t << 32) | w0
	return hi, lo
}

// Normal returns a draw from the standard normal distribution using the
// Marsaglia polar method.
func (s *Stream) Normal() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(q)/q)
	}
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// State exposes the raw generator state for checkpointing a simulation run.
func (s *Stream) State() [4]uint64 { return s.state }

// Restore overwrites the generator state, e.g. when resuming a checkpointed
// run. It returns ErrDegenerateSeed when the state is all zero.
func (s *Stream) Restore(state [4]uint64) error {
	if state[0]|state[1]|state[2]|state[3] == 0 {
		return ErrDegenerateSeed
	}
	s.state = state
	return nil
}
