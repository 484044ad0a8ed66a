package statespace

import (
	"strings"

	"repro/internal/san"
)

// This file holds the symmetric quotient's model side: which instance blocks
// of a marking exploration may permute, the canonical form it interns, and
// the enumeration of a class's members for the lumpability check
// (explore_fast.go runs the check).
//
// A group is a san.Replicate group whose instances hold no other group (a
// leaf), with at least two instances whose places carry the same names under
// their instance prefixes. An instance's block is its token counts in the
// place order of instance 0. The canonical form of a marking sorts every
// group's blocks lexicographically; the marking's class is the set of
// markings with the same canonical form — the distinct permutations of the
// representative's blocks. Groups that hold other groups stay flat.

// symGroup is one group in marking-index terms: places[i*k+j] is the
// marking index of local place j of instance i.
type symGroup struct {
	prefix string
	n, k   int
	places []int
}

// symmetry is the set of groups one exploration canonicalizes.
type symmetry struct {
	groups []symGroup
}

// findSymmetry returns the model's leaf replicate groups whose instances
// align by place name, or nil when there is none.
func findSymmetry(cm *san.CompiledModel) *symmetry {
	model := cm.Model()
	recs := model.ReplicateGroups()
	type owner struct{ leaf, inst int }
	byPrefix := map[string]owner{}
	var leaves []san.ReplicateGroup
	for gi, g := range recs {
		if g.Count < 2 {
			continue
		}
		leaf := true
		for hi, h := range recs {
			if hi != gi && strings.HasPrefix(h.Prefix, g.Prefix+"[") {
				leaf = false
				break
			}
		}
		if !leaf {
			continue
		}
		for i := 0; i < g.Count; i++ {
			byPrefix[g.Instance(i)] = owner{len(leaves), i}
		}
		leaves = append(leaves, g)
	}
	if len(leaves) == 0 {
		return nil
	}

	// Each place belongs to the instance whose prefix ends at one of its
	// '/' separators; leaf instances are disjoint, so there is at most one.
	owned := make([][][]*san.Place, len(leaves))
	for l, g := range leaves {
		owned[l] = make([][]*san.Place, g.Count)
	}
	for _, p := range model.Places() {
		name := p.Name()
		for cut := strings.IndexByte(name, '/'); cut >= 0; {
			if o, ok := byPrefix[name[:cut]]; ok {
				owned[o.leaf][o.inst] = append(owned[o.leaf][o.inst], p)
				break
			}
			next := strings.IndexByte(name[cut+1:], '/')
			if next < 0 {
				break
			}
			cut += 1 + next
		}
	}

	sym := &symmetry{}
	for l, g := range leaves {
		base := owned[l][0]
		k := len(base)
		if k == 0 {
			continue
		}
		sg := symGroup{prefix: g.Prefix, n: g.Count, k: k, places: make([]int, 0, g.Count*k)}
		aligned := true
		for i := 0; i < g.Count && aligned; i++ {
			if len(owned[l][i]) != k {
				aligned = false
				break
			}
			for _, p0 := range base {
				p := model.Place(g.Instance(i) + strings.TrimPrefix(p0.Name(), g.Instance(0)))
				if p == nil {
					aligned = false
					break
				}
				sg.places = append(sg.places, p.Index())
			}
		}
		if aligned {
			sym.groups = append(sym.groups, sg)
		}
	}
	if len(sym.groups) == 0 {
		return nil
	}
	return sym
}

// prefixes names the groups, for the certificate's evidence.
func (s *symmetry) prefixes() []string {
	out := make([]string, len(s.groups))
	for i, g := range s.groups {
		out[i] = g.prefix
	}
	return out
}

// cmpBlocks orders instance a's block against instance b's in mark.
func (g *symGroup) cmpBlocks(mark []int, a, b int) int {
	pa := g.places[a*g.k : (a+1)*g.k]
	pb := g.places[b*g.k : (b+1)*g.k]
	for j := range pa {
		if d := mark[pa[j]] - mark[pb[j]]; d != 0 {
			return d
		}
	}
	return 0
}

// symScratch is one caller's reusable canonicalization buffers.
type symScratch struct {
	order []int // a group's instances in sorted block order
	tmp   []int // a group's blocks in that order
}

func newSymScratch(s *symmetry) symScratch {
	maxN, maxNK := 0, 0
	for _, g := range s.groups {
		maxN, maxNK = max(maxN, g.n), max(maxNK, g.n*g.k)
	}
	return symScratch{order: make([]int, maxN), tmp: make([]int, maxNK)}
}

// canon rewrites mark in place into its class representative: every group's
// blocks sorted. Insertion sort keeps it allocation-free; groups are small.
func (s *symmetry) canon(mark []int, sc *symScratch) {
	for gi := range s.groups {
		g := &s.groups[gi]
		order := sc.order[:g.n]
		for i := range order {
			order[i] = i
		}
		moved := false
		for i := 1; i < g.n; i++ {
			for j := i; j > 0 && g.cmpBlocks(mark, order[j], order[j-1]) < 0; j-- {
				order[j], order[j-1] = order[j-1], order[j]
				moved = true
			}
		}
		if !moved {
			continue
		}
		tmp := sc.tmp[:g.n*g.k]
		for i, src := range order {
			for j := 0; j < g.k; j++ {
				tmp[i*g.k+j] = mark[g.places[src*g.k+j]]
			}
		}
		for x, p := range g.places {
			mark[p] = tmp[x]
		}
	}
}

// members returns the number of markings in representative rep's class —
// per group the multinomial n!/∏ c! over runs of equal blocks — or a value
// above limit once it exceeds limit.
func (s *symmetry) members(rep []int, limit int) int {
	total := 1
	for gi := range s.groups {
		g := &s.groups[gi]
		remaining, run := g.n, 1
		for i := 1; i <= g.n; i++ {
			if i < g.n && g.cmpBlocks(rep, i-1, i) == 0 {
				run++
				continue
			}
			b := binomialCapped(remaining, run, limit)
			if b > limit/total {
				return limit + 1
			}
			total *= b
			remaining -= run
			run = 1
		}
	}
	return total
}

// binomialCapped returns C(n, r), or limit+1 once the partial products
// exceed limit (they increase, so the result would too).
func binomialCapped(n, r, limit int) int {
	c := 1
	for i := 1; i <= r; i++ {
		c = c * (n - r + i) / i
		if c > limit {
			return limit + 1
		}
	}
	return c
}

// foldMax folds the class of representative rep into the per-place maxima:
// every member puts each block at every instance, so a group place's maximum
// is the largest value of its local place over all instances.
func (s *symmetry) foldMax(observedMax, rep []int) {
	for pi, v := range rep {
		observedMax[pi] = max(observedMax[pi], v)
	}
	for gi := range s.groups {
		g := &s.groups[gi]
		for j := 0; j < g.k; j++ {
			top := 0
			for i := 0; i < g.n; i++ {
				top = max(top, rep[g.places[i*g.k+j]])
			}
			for i := 0; i < g.n; i++ {
				p := g.places[i*g.k+j]
				observedMax[p] = max(observedMax[p], top)
			}
		}
	}
}

// memberIter enumerates the members of a class other than its
// representative: the distinct arrangements of the representative's blocks,
// per group in lexicographic order, groups advancing like an odometer. Its
// buffers are reused across classes.
type memberIter struct {
	sym *symmetry
	rep []int
	// src[off[g]+i] is the instance of the representative whose block sits
	// at position i of group g. Equal blocks are adjacent in the
	// representative and share the first one's instance, so the sources
	// ascend there and permuting them gives each arrangement once.
	src, off []int
}

// start positions the iterator on representative rep and reports whether
// the class has members other than rep.
func (it *memberIter) start(sym *symmetry, rep []int) bool {
	it.sym, it.rep = sym, rep
	it.src, it.off = it.src[:0], it.off[:0]
	more := false
	for gi := range sym.groups {
		g := &sym.groups[gi]
		it.off = append(it.off, len(it.src))
		for i := 0; i < g.n; i++ {
			switch {
			case i == 0:
				it.src = append(it.src, 0)
			case g.cmpBlocks(rep, i-1, i) == 0:
				it.src = append(it.src, it.src[len(it.src)-1])
			default:
				it.src = append(it.src, i)
				more = true
			}
		}
	}
	return more
}

// next advances to the next member and reports false after the last one.
func (it *memberIter) next() bool {
	for gi := range it.sym.groups {
		g := &it.sym.groups[gi]
		if nextPermutation(it.src[it.off[gi] : it.off[gi]+g.n]) {
			return true
		}
	}
	return false
}

// fill writes the current member into dst (len(dst) == len(rep)).
func (it *memberIter) fill(dst []int) {
	copy(dst, it.rep)
	for gi := range it.sym.groups {
		g := &it.sym.groups[gi]
		for i, src := range it.src[it.off[gi] : it.off[gi]+g.n] {
			for j := 0; j < g.k; j++ {
				dst[g.places[i*g.k+j]] = it.rep[g.places[src*g.k+j]]
			}
		}
	}
}

// nextPermutation rearranges a into the next distinct permutation in
// lexicographic order; after the last it restores ascending order and
// returns false.
func nextPermutation(a []int) bool {
	i := len(a) - 2
	for i >= 0 && a[i] >= a[i+1] {
		i--
	}
	if i >= 0 {
		j := len(a) - 1
		for a[j] <= a[i] {
			j--
		}
		a[i], a[j] = a[j], a[i]
	}
	for l, r := i+1, len(a)-1; l < r; l, r = l+1, r-1 {
		a[l], a[r] = a[r], a[l]
	}
	return i >= 0
}
