package addr

import "fmt"

// Table layout. An LPN splits into a directory, a span slot (the bits
// above leafBits+midBits, within the directory), a mid slot and a leaf
// slot. Nodes are carved from slabs of slabNodes nodes and named by 1 +
// their index, so 0 means "no node". The sizes were measured on the
// simulator's workloads: larger nodes cost memory under small sparse
// writes, and one allocation per node costs allocations under large
// dense ones. A directory of dirSize spans covers 2 GiB of 4 KiB pages:
// smaller directories cost allocations when writes spread over a large
// drive, larger ones bytes when they stay in a small working set.
const (
	leafBits  = 4
	leafSize  = 1 << leafBits // entries per leaf
	midBits   = 5
	midSize   = 1 << midBits // leaves per mid node
	spanBits  = leafBits + midBits
	dirBits   = 10
	dirSize   = 1 << dirBits // spans per directory
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
// so the table holds no Go pointers below its directory list and two slab
// lists: when V has no pointers either, the garbage collector never scans
// its nodes. A directory or slab never moves once allocated, so a pointer
// returned by Ref stays valid for the table's lifetime, and growing the
// table copies only the short lists of pointers to them. Nodes are never
// freed: storing the zero V leaves the path in place for the next store.
//
// The table remembers the leaf its last Get or Ref found or made, so a
// lookup in the same leaf as the one before skips the walk. Get therefore
// writes to the table: a Table is not safe for concurrent use, readers
// included.
//
// The zero Table is empty and ready to use. Negative LPNs are never
// present; a directory is allocated when a page in its range is first
// stored.
type Table[V comparable] struct {
	dirs    []*[dirSize]int32            // per directory, nil if untouched: per span 1 + mid node index
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
	if l < 0 || hi>>dirBits >= LPN(len(t.dirs)) {
		return zero
	}
	dir := t.dirs[hi>>dirBits]
	if dir == nil {
		return zero
	}
	m := dir[hi&(dirSize-1)]
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
	d := hi >> dirBits
	if n := d + 1 - len(t.dirs); n > 0 {
		t.dirs = append(t.dirs, make([]*[dirSize]int32, n)...)
	}
	dir := t.dirs[d]
	if dir == nil {
		dir = new([dirSize]int32)
		t.dirs[d] = dir
	}
	m := &dir[hi&(dirSize-1)]
	if *m == 0 {
		*m = take(&t.mids, &t.nMids)
	}
	mi := *m - 1
	mp := &t.mids[mi>>slabShift][mi&(slabNodes-1)][(l>>leafBits)&(midSize-1)]
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
	for d, dir := range t.dirs {
		if dir == nil {
			continue
		}
		for s, m := range dir {
			if m == 0 {
				continue
			}
			m--
			hi := d<<dirBits | s
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
}
