package statespace

import (
	"bytes"
	"encoding/binary"
)

// markIndex interns markings as varint-packed byte strings, stored in the
// blocks of a blockStore (chain.go), indexed by an open-addressed table of
// 64-bit FNV-1a hash buckets with collision-checked equality. Interning a
// marking costs one pack into a reusable scratch buffer and one probe — no
// per-state string allocation, no 8-bytes-per-place key — and the packed
// blocks are the only long-lived per-state storage: the generator keeps
// them, and decodes a marking into reused scratch wherever one is needed.
//
// State indices are assigned in insertion order, so the explorer's numbering
// is exactly its BFS discovery order.
type markIndex struct {
	table  []int32 // open-addressed slots holding state index + 1; 0 = empty
	mask   uint64
	hashes []uint64 // per state: its packed-marking hash
	marks  blockStore[byte]
}

func newMarkIndex() *markIndex {
	const initialSlots = 1024 // power of two
	return &markIndex{table: make([]int32, initialSlots), mask: initialSlots - 1}
}

// packMarking appends the canonical varint encoding of mark to dst. Token
// counts are non-negative (the guarded writer refuses negative markings), so
// unsigned varints are total.
func packMarking(dst []byte, mark []int) []byte {
	for _, v := range mark {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// unpackMarking decodes a packed marking into mark, one token count per
// element, and returns it.
func unpackMarking(packed []byte, mark []int) []int {
	for i := range mark {
		v, k := binary.Uvarint(packed)
		mark[i] = int(v)
		packed = packed[k:]
	}
	return mark
}

// FNV-1a, 64 bit.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashBytes(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// len returns the number of interned markings.
func (mi *markIndex) len() int { return len(mi.hashes) }

// packedOf returns state si's packed marking, a view into its block that
// holds until the next insert.
func (mi *markIndex) packedOf(si int) []byte { return mi.marks.run(si) }

// views finishes the index and returns every interned marking as a view
// into its block, in index order. A view's capacity ends with it, so
// appending to one cannot reach the next. The index takes no insert after.
func (mi *markIndex) views() [][]byte {
	mi.marks.finish()
	out := make([][]byte, mi.len())
	for si := range out {
		out[si] = mi.marks.run(si)
	}
	return out
}

// reset empties the index for reuse as scratch, keeping its table's size.
func (mi *markIndex) reset() {
	clear(mi.table)
	mi.hashes = mi.hashes[:0]
	mi.marks.reset()
}

// lookup probes for a packed marking, comparing bytes on every hash match —
// a 64-bit collision can alias buckets but never states.
func (mi *markIndex) lookup(packed []byte, h uint64) (int, bool) {
	slot := h & mi.mask
	for {
		v := mi.table[slot]
		if v == 0 {
			return 0, false
		}
		si := int(v - 1)
		if mi.hashes[si] == h && bytes.Equal(mi.packedOf(si), packed) {
			return si, true
		}
		slot = (slot + 1) & mi.mask
	}
}

// insert adds a marking known (via lookup) to be absent and returns its new
// state index. The packed bytes are copied into the open block, so callers
// may reuse their scratch buffer.
func (mi *markIndex) insert(packed []byte, h uint64) int {
	si := len(mi.hashes)
	mi.hashes = append(reserve(mi.hashes, 1), h)
	mi.marks.add(packed...)
	mi.marks.endState()
	// Grow at 75% occupancy; growth rehashes from the hashes array, so the
	// packed markings are never re-read.
	if (len(mi.hashes)+1)*4 >= len(mi.table)*3 {
		mi.grow()
	} else {
		mi.place(h, int32(si+1))
	}
	return si
}

func (mi *markIndex) place(h uint64, v int32) {
	slot := h & mi.mask
	for mi.table[slot] != 0 {
		slot = (slot + 1) & mi.mask
	}
	mi.table[slot] = v
}

func (mi *markIndex) grow() {
	mi.table = make([]int32, 2*len(mi.table))
	mi.mask = uint64(len(mi.table) - 1)
	for si, h := range mi.hashes {
		mi.place(h, int32(si+1))
	}
}
