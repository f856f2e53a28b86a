package addr

import (
	"math/rand/v2"
	"testing"

	"powerfail/internal/racedet"
)

// lastLPN256GB is the last logical page of a 256 GB drive, the largest
// device the simulator models.
const lastLPN256GB = LPN(256<<30>>PageShift) - 1

// dirPages is the number of pages one directory covers.
const dirPages = LPN(dirSize) << spanBits

// pickLPN maps a selector and two bytes onto the address regions a page
// table must get right: a dense run from LPN 0, a dense run across leaf
// and mid-node boundaries, sparse single pages over the whole drive, the
// top of a 256 GB drive, a dense run across the first directory
// boundary, and the first pages of every fifth directory, with empty
// directories between them.
func pickLPN(sel, a, b byte) LPN {
	off := LPN(a)<<8 | LPN(b)
	switch sel % 6 {
	case 0:
		return off % 64
	case 1:
		return 4000 + off%1100
	case 2:
		return off * 1021
	case 3:
		return lastLPN256GB - off%40
	case 4:
		return dirPages - 128 + off%256
	default:
		return LPN(a%32)*5*dirPages + LPN(b)
	}
}

// runTableOps decodes ops three bytes at a time into stores, stores of
// the zero value and lookups, applies them to a Table and to a map, and
// fails on the first disagreement. It ends with a full Range check.
func runTableOps(tb testing.TB, ops []byte) {
	tb.Helper()
	var tab Table[uint32]
	ref := map[LPN]uint32{}
	for ; len(ops) >= 3; ops = ops[3:] {
		kind, a, b := ops[0], ops[1], ops[2]
		l := pickLPN(kind>>2, a, b)
		switch kind & 3 {
		case 0, 1:
			v := uint32(kind)<<16 | uint32(a)<<8 | uint32(b) | 1
			*tab.Ref(l) = v
			ref[l] = v
		case 2:
			*tab.Ref(l) = 0
			delete(ref, l)
		default:
			if got := tab.Get(l); got != ref[l] {
				tb.Fatalf("Get(%d) = %d, want %d", l, got, ref[l])
			}
		}
	}
	checkRange(tb, &tab, ref)
}

// checkRange verifies that Range visits exactly the map's entries, in
// ascending LPN order, and that Get agrees on each of them.
func checkRange(tb testing.TB, tab *Table[uint32], ref map[LPN]uint32) {
	tb.Helper()
	n, last := 0, LPN(-1)
	for l, v := range tab.Range {
		if l <= last {
			tb.Fatalf("Range visited %d after %d", l, last)
		}
		if want, ok := ref[l]; !ok || v != want {
			tb.Fatalf("Range gave %d=%d, map has %d (present %v)", l, v, want, ok)
		}
		last = l
		n++
	}
	if n != len(ref) {
		tb.Fatalf("Range visited %d entries, map has %d", n, len(ref))
	}
	for l, want := range ref {
		if got := tab.Get(l); got != want {
			tb.Fatalf("Get(%d) = %d, want %d", l, got, want)
		}
	}
}

// tableSeeds are op sequences (see runTableOps) aimed at the cached
// leaf and the directories. Kinds 0, 2 and 3 store, store zero and Get a
// page below 64, named by the third byte; kinds 4 and 7 store and Get
// page 4000 + (a<<8|b)%1100; kinds 16 and 19 store and Get page
// dirPages - 128 + (a<<8|b)%256; kinds 20 and 23 store and Get page
// b of directory 5*(a%32).
var tableSeeds = [][]byte{
	{},
	{0, 0, 0, 3, 0, 0},            // store then read LPN 0
	{12, 0, 0, 14, 0, 0},          // store, then zero, the drive's last page
	{4, 0, 15, 4, 0, 16, 7},       // across a leaf boundary
	{8, 1, 0, 10, 1, 0, 11, 1, 0}, // sparse store, zero, read
	// A run inside one leaf: stores, a zero store, then reads of every
	// entry and of an absent one.
	{0, 0, 1, 0, 0, 2, 0, 0, 3, 2, 0, 2, 3, 0, 1, 3, 0, 2, 3, 0, 3, 3, 0, 9},
	// A run across the boundary between leaves 0 and 1, read back in an
	// order that switches leaf on every Get.
	{0, 0, 14, 0, 0, 15, 0, 0, 16, 0, 0, 17, 3, 0, 15, 3, 0, 16, 3, 0, 14, 3, 0, 17},
	// Get absent pages in the leaves either side of the cached one, whose
	// mid node exists, then read the cached leaf again.
	{0, 0, 20, 3, 0, 20, 3, 0, 32, 3, 0, 15, 3, 0, 21, 3, 0, 20},
	// Ref right after a Get that missed: the store must land in the new
	// leaf, not the one cached before the miss.
	{0, 0, 3, 3, 0, 3, 3, 0, 40, 0, 0, 40, 3, 0, 40, 3, 0, 3, 3, 0, 41},
	// The same where the Get misses because page 5052 lies beyond the top
	// level.
	{0, 0, 3, 7, 17, 0, 4, 17, 0, 7, 17, 0, 3, 0, 3},
	// The same where the Get misses its whole path: page 4600's span has
	// no mid node, though page 5052's has grown the top level past it.
	{4, 4, 28, 0, 0, 3, 7, 2, 88, 4, 2, 88, 7, 2, 88, 3, 0, 3},
	// The last page of directory 0 and the first of directory 1, stored
	// in both orders and read back, with the pages either side absent.
	{16, 0, 127, 16, 0, 128, 19, 0, 127, 19, 0, 128, 19, 0, 126, 19, 0, 129},
	{16, 0, 128, 16, 0, 127, 19, 0, 128, 19, 0, 127, 0, 0, 1, 19, 0, 127},
	// Directories 0 and 155 with 154 empty ones between them, read in
	// both orders; the second store grows the directory list past the
	// empty ones.
	{20, 0, 9, 20, 31, 7, 23, 31, 7, 23, 0, 9, 23, 30, 7, 23, 31, 8},
	// A Range that crosses absent directories: directories 0, 15, 30 and
	// 155 and the drive's last page, stored out of order (checkRange
	// walks them in order).
	{20, 31, 1, 20, 3, 2, 20, 0, 3, 20, 6, 4, 12, 0, 0},
	// Ref right after a Get that missed at the directory level, first
	// beyond the directory list (directory 40), then inside it at a
	// directory never stored (directory 5, once directory 155 has grown
	// the list). Each store must land in its new directory, not in the
	// leaf cached from directory 0.
	{20, 0, 3, 23, 8, 5, 20, 8, 5, 23, 8, 5, 23, 0, 3,
		20, 31, 3, 23, 1, 3, 20, 1, 3, 23, 1, 3, 23, 0, 3, 23, 31, 3},
}

func TestTableMatchesMap(t *testing.T) {
	for _, ops := range tableSeeds {
		runTableOps(t, ops)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		ops := make([]byte, 3*20000)
		for i := range ops {
			ops[i] = byte(rng.Uint32())
		}
		runTableOps(t, ops)
	}

	var tab Table[uint32]
	if tab.Get(0) != 0 || tab.Get(lastLPN256GB) != 0 || tab.Get(-1) != 0 {
		t.Fatal("empty table reports an entry")
	}
	count := 0
	for range tab.Range {
		count++
	}
	if count != 0 {
		t.Fatalf("empty table ranged over %d entries", count)
	}
	// A zero store creates the path but no entry.
	*tab.Ref(77) = 0
	for range tab.Range {
		t.Fatal("a stored zero is visited by Range")
	}
	*tab.Ref(lastLPN256GB) = 5
	*tab.Ref(0) = 3
	*tab.Ref(17) = 4
	// Range stops when fn returns false.
	var seen []LPN
	for l := range tab.Range {
		seen = append(seen, l)
		if len(seen) == 2 {
			break
		}
	}
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 17 {
		t.Fatalf("early-stopped Range visited %v", seen)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Ref of a negative LPN did not panic")
		}
	}()
	tab.Ref(-1)
}

// TestTableRefAllocatesNothing pins the hot-path contract: once a page's
// path exists, Ref and Get on it allocate nothing.
func TestTableRefAllocatesNothing(t *testing.T) {
	if racedet.Enabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	var tab Table[uint64]
	lpns := []LPN{0, 15, 16, 511, 512, 123457, lastLPN256GB}
	for _, l := range lpns {
		tab.Ref(l)
	}
	n := testing.AllocsPerRun(100, func() {
		for _, l := range lpns {
			*tab.Ref(l) += tab.Get(l) + 1
		}
	})
	if n != 0 {
		t.Fatalf("Ref/Get on allocated paths made %v allocs, want 0", n)
	}
}

// TestTableFillAllocatesEachDirectoryOnce fills a table over a 16 GB span
// (see fillRuns) and checks that exactly the directories its pages lie in
// are allocated, each once and never replaced, and that every page reads
// back.
func TestTableFillAllocatesEachDirectoryOnce(t *testing.T) {
	var tab Table[int32]
	seen := map[int]*[dirSize]int32{}
	want := map[LPN]int32{}
	dirs := map[int]bool{}
	fillRuns(&tab, func(start LPN, v int32) {
		for l := start; l < start+128; l++ {
			want[l] = v
			dirs[int(l/dirPages)] = true
		}
		for d, dir := range tab.dirs {
			if dir == nil {
				continue
			}
			if p, ok := seen[d]; ok && p != dir {
				t.Fatalf("directory %d was replaced", d)
			}
			seen[d] = dir
		}
	})
	if len(seen) != len(dirs) {
		t.Fatalf("%d directories allocated, pages lie in %d", len(seen), len(dirs))
	}
	for d := range seen {
		if !dirs[d] {
			t.Fatalf("directory %d allocated, no page stored in it", d)
		}
	}
	if len(dirs) < 2 {
		t.Fatalf("the fill touches %d directories, want several", len(dirs))
	}
	for l, v := range want {
		if got := tab.Get(l); got != v {
			t.Fatalf("Get(%d) = %d, want %d", l, got, v)
		}
	}
}

func FuzzTable(f *testing.F) {
	for _, ops := range tableSeeds {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runTableOps(t, ops) })
}
