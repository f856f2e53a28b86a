package addr

import (
	"fmt"
	"slices"
)

// Table layout. An LPN splits into a top index (the bits above
// leafBits+midBits), a mid slot and a leaf slot. Nodes are carved from
// slabs of slabNodes nodes and named by 1 + their index, so 0 means "no
// node". The sizes were measured on the simulator's workloads: larger
// nodes cost memory under small sparse writes, and one allocation per
// node costs allocations under large dense ones.
const (
	leafBits  = 4
	leafSize  = 1 << leafBits // entries per leaf
	midBits   = 5
	midSize   = 1 << midBits // leaves per mid node
	spanBits  = leafBits + midBits
	slabShift = 6
	slabNodes = 1 << slabShift // nodes per slab
)

// Table is a sparse page table from LPN to V: a three-level radix table
// whose memory follows the pages actually touched, not the address space.
// The zero V means "absent", so a Table needs no separate presence bits;
// callers whose values may legitimately be zero store a biased value
// (such as index+1).
//
// Nodes live in fixed-size slabs and link to each other by int32 index,
// so the table holds no Go pointers below its two slab lists: when V has
// no pointers either, the garbage collector never scans its nodes. A slab
// never moves once allocated, so a pointer returned by Ref stays valid for
// the table's lifetime. Nodes are never freed: storing the zero V leaves
// the path in place for the next store.
//
// The table remembers the leaf its last Get or Ref found or made, so a
// lookup in the same leaf as the one before skips the walk. Get therefore
// writes to the table: a Table is not safe for concurrent use, readers
// included.
//
// The zero Table is empty and ready to use. Negative LPNs are never
// present; the top level grows to the highest LPN stored.
type Table[V comparable] struct {
	top     []int32                      // per span: 1 + mid node index
	mids    []*[slabNodes][midSize]int32 // per mid slot: 1 + leaf node index
	leaves  []*[slabNodes][leafSize]V
	nMids   int32
	nLeaves int32
	leaf    *[leafSize]V // the last leaf found or made, or nil
	leafNo  LPN          // leaf's first LPN >> leafBits
}

// Get returns the value stored at l, or the zero V when none is. It never
// allocates.
func (t *Table[V]) Get(l LPN) V {
	if t.leaf != nil && l>>leafBits == t.leafNo {
		return t.leaf[l&(leafSize-1)]
	}
	var zero V
	hi := l >> spanBits
	if l < 0 || hi >= LPN(len(t.top)) {
		return zero
	}
	m := t.top[hi]
	if m == 0 {
		return zero
	}
	m--
	lf := t.mids[m>>slabShift][m&(slabNodes-1)][(l>>leafBits)&(midSize-1)]
	if lf == 0 {
		return zero
	}
	lf--
	t.leaf, t.leafNo = &t.leaves[lf>>slabShift][lf&(slabNodes-1)], l>>leafBits
	return t.leaf[l&(leafSize-1)]
}

// Ref returns a pointer to l's entry, creating the path to it if needed.
// Once the path exists Ref allocates nothing. It panics on a negative LPN.
func (t *Table[V]) Ref(l LPN) *V {
	if t.leaf != nil && l>>leafBits == t.leafNo {
		return &t.leaf[l&(leafSize-1)]
	}
	if l < 0 {
		panic(fmt.Sprintf("addr: Table.Ref(%v): negative page", l))
	}
	hi := int(l >> spanBits)
	if hi >= len(t.top) {
		n := len(t.top)
		t.top = slices.Grow(t.top, hi+1-n)[:hi+1]
		clear(t.top[n:])
	}
	m := t.top[hi]
	if m == 0 {
		m = take(&t.mids, &t.nMids)
		t.top[hi] = m
	}
	m--
	mp := &t.mids[m>>slabShift][m&(slabNodes-1)][(l>>leafBits)&(midSize-1)]
	if *mp == 0 {
		*mp = take(&t.leaves, &t.nLeaves)
	}
	lf := *mp - 1
	t.leaf, t.leafNo = &t.leaves[lf>>slabShift][lf&(slabNodes-1)], l>>leafBits
	return &t.leaf[l&(leafSize-1)]
}

// take takes the next node of a slab list holding n nodes, adding a slab
// when the last is full, and returns 1 + its index.
func take[N any](slabs *[]*[slabNodes]N, n *int32) int32 {
	if int(*n>>slabShift) == len(*slabs) {
		*slabs = append(*slabs, new([slabNodes]N))
	}
	*n++
	return *n
}

// Range calls fn for every entry holding a non-zero V, in ascending LPN
// order, until fn returns false. fn may store through Ref; whether Range
// then visits an entry fn added is unspecified.
func (t *Table[V]) Range(fn func(LPN, V) bool) {
	var zero V
	for hi, m := range t.top {
		if m == 0 {
			continue
		}
		m--
		for j, lf := range &t.mids[m>>slabShift][m&(slabNodes-1)] {
			if lf == 0 {
				continue
			}
			lf--
			base := LPN(hi)<<spanBits | LPN(j)<<leafBits
			for k, v := range &t.leaves[lf>>slabShift][lf&(slabNodes-1)] {
				if v != zero && !fn(base|LPN(k), v) {
					return
				}
			}
		}
	}
}
