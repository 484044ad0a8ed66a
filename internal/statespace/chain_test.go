package statespace

import (
	"bytes"
	"math"
	"testing"
)

// TestMarkIndexBlocks interns more than three blocks of markings whose
// packed lengths mix one-, two- and three-byte varints (token counts from 0
// to above 16,384), and checks that every marking looks up to its insertion
// index, that packedOf keeps returning each marking's bytes across later
// inserts and block flushes, that views are capped at their own bytes, and
// that a reset index forgets what it held.
func TestMarkIndexBlocks(t *testing.T) {
	const n = 3*(1<<blockShift) + 500
	marking := func(i int) []int {
		third := i % 3
		if i%5 == 0 {
			third = 20000 + i
		}
		return []int{i, i * 7 % 300, third}
	}
	want := make([][]byte, n)
	lengths := map[int]bool{}
	idx := newMarkIndex()
	for i := range n {
		want[i] = packMarking(nil, marking(i))
		lengths[len(want[i])] = true
		h := hashBytes(want[i])
		if si, ok := idx.lookup(want[i], h); ok {
			t.Fatalf("marking %d found as %d before it was inserted", i, si)
		}
		buf := append([]byte(nil), want[i]...)
		if si := idx.insert(buf, h); si != i {
			t.Fatalf("marking %d inserted as %d", i, si)
		}
		clear(buf) // the index must hold its own copy
		if i&blockMask == blockMask || i == n-1 {
			for s := 0; s <= i; s++ {
				if got := idx.packedOf(s); !bytes.Equal(got, want[s]) {
					t.Fatalf("after %d inserts, packedOf(%d) = %v, want %v", i+1, s, got, want[s])
				}
			}
		}
	}
	if len(lengths) < 3 {
		t.Fatalf("packed lengths %v: want at least three", lengths)
	}
	if len(idx.marks.blocks) != 3 {
		t.Fatalf("%d blocks flushed before finishing, want 3", len(idx.marks.blocks))
	}
	for i := range n {
		if si, ok := idx.lookup(want[i], hashBytes(want[i])); !ok || si != i {
			t.Fatalf("marking %d looks up to (%d, %v)", i, si, ok)
		}
	}
	absent := packMarking(nil, []int{n, 0, 0})
	if si, ok := idx.lookup(absent, hashBytes(absent)); ok {
		t.Fatalf("absent marking found as %d", si)
	}

	views := idx.views()
	if len(views) != n || len(idx.marks.blocks) != 4 {
		t.Fatalf("%d views over %d blocks, want %d over 4", len(views), len(idx.marks.blocks), n)
	}
	for i, v := range views {
		if !bytes.Equal(v, want[i]) || cap(v) != len(v) {
			t.Fatalf("view %d = %v (cap %d), want %v at its own length", i, v, cap(v), want[i])
		}
	}

	idx.reset()
	if idx.len() != 0 {
		t.Fatalf("reset index holds %d markings", idx.len())
	}
	for i := range 3 {
		h := hashBytes(want[i+1])
		if _, ok := idx.lookup(want[i+1], h); ok {
			t.Fatalf("reset index still finds marking %d", i+1)
		}
		if si := idx.insert(want[i+1], h); si != i {
			t.Fatalf("reset index inserted marking %d as %d, want %d", i+1, si, i)
		}
	}
}

// TestKindTableInternsByBits checks that edge kinds are interned by bits:
// rates one ulp apart get distinct kinds, impulse vectors {+0.0} and {-0.0}
// get distinct ids and so distinct kinds, and equal bits share one kind,
// which lookup finds without adding it.
func TestKindTableInternsByBits(t *testing.T) {
	imps := newImpulseTable()
	pos := imps.intern([]float64{0})
	neg := imps.intern([]float64{math.Copysign(0, -1)})
	if pos != 0 || neg == 0 {
		t.Fatalf("impulse ids: {+0.0} %d, {-0.0} %d; want 0 and non-zero", pos, neg)
	}
	if again := imps.intern([]float64{math.Copysign(0, -1)}); again != neg {
		t.Fatalf("{-0.0} interned again as %d, want %d", again, neg)
	}

	kinds := newKindTable()
	rate := 0.1
	next := math.Nextafter(rate, 1)
	a := kinds.intern(rate, pos)
	if b := kinds.intern(next, pos); b == a {
		t.Fatalf("rates %v and %v share kind %d", rate, next, a)
	}
	c := kinds.intern(rate, neg)
	if c == a {
		t.Fatalf("impulses {+0.0} and {-0.0} share kind %d", a)
	}
	if got := kinds.intern(1/10.0, pos); got != a {
		t.Fatalf("equal bits interned as %d, want %d", got, a)
	}
	if got := kinds.intern(rate, neg); got != c {
		t.Fatalf("equal bits interned as %d, want %d", got, c)
	}
	if len(kinds.kinds) != 3 {
		t.Fatalf("%d kinds, want 3", len(kinds.kinds))
	}
	if got, ok := kinds.lookup(rate, neg); !ok || got != c {
		t.Fatalf("lookup = (%d, %v), want (%d, true)", got, ok, c)
	}
	if _, ok := kinds.lookup(math.Nextafter(rate, 0), pos); ok || len(kinds.kinds) != 3 {
		t.Fatalf("lookup of an absent kind found it or added it (%d kinds)", len(kinds.kinds))
	}
	if k := kinds.kinds[c]; k.rate() != rate || k.imp != neg {
		t.Fatalf("kind %d = (%v, %d), want (%v, %d)", c, k.rate(), k.imp, rate, neg)
	}
}
