package dram

import (
	"slices"
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/racedet"
)

// cycle is one steady-state power cycle of the cache: fill it with dirty
// pages, flush half of them, and lose everything to a power cut.
func cycle(c *Cache, round int) {
	for i := 0; i < c.Cap(); i++ {
		c.Write(addr.LPN(round*7+i*13), content.Fingerprint(round+i+1))
	}
	for _, e := range c.PopDirty(c.Cap() / 2) {
		c.FlushDone(e.LPN, e.Seq)
	}
	c.DropAll()
}

// TestCycleAllocatesNothing pins the arena's steady state: once the first
// cycle has opened the chunks and sized the map and pop buffer, write →
// PopDirty → FlushDone → DropAll allocates nothing. The cache spans three
// chunks, the last one partly used.
func TestCycleAllocatesNothing(t *testing.T) {
	if racedet.Enabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	c := newCache(t, 2*slotChunk+slotChunk/2)
	cycle(c, 0)
	if len(c.chunks) != 3 {
		t.Fatalf("first cycle opened %d chunks, want 3", len(c.chunks))
	}
	round := 0
	if n := testing.AllocsPerRun(50, func() { round++; cycle(c, round) }); n != 0 {
		t.Fatalf("steady-state cycle made %v allocs, want 0", n)
	}
}

// TestArenaGrowsByChunk fills fresh caches with N distinct pages: the
// arena must open ⌈N/slotChunk⌉ chunks, and no slot may move while it
// grows, so each page's slot address, taken right after its write, still
// holds the page when the fill ends. A power loss keeps the chunks, and
// the refill reuses them in place.
func TestArenaGrowsByChunk(t *testing.T) {
	for _, n := range []int{1, slotChunk - 1, slotChunk, slotChunk + 1, 3 * slotChunk, 7000} {
		c := newCache(t, n)
		addrs := make([]*slot, n)
		for i := range n {
			lpn := addr.LPN(i * 3)
			if !c.Write(lpn, content.Fingerprint(i+1)) {
				t.Fatalf("n=%d: write %d refused", n, i)
			}
			addrs[i] = c.at(c.m.Get(lpn) - 1)
		}
		want := (n + slotChunk - 1) / slotChunk
		if len(c.chunks) != want {
			t.Fatalf("n=%d: %d chunks, want %d", n, len(c.chunks), want)
		}
		for i, s := range addrs {
			lpn := addr.LPN(i * 3)
			if c.at(c.m.Get(lpn)-1) != s || s.lpn != lpn || s.fp != content.Fingerprint(i+1) {
				t.Fatalf("n=%d: page %d's slot moved while the arena grew", n, lpn)
			}
		}
		chunks := slices.Clone(c.chunks)
		c.DropAll()
		for i := range n {
			c.Write(addr.LPN(i*5), content.Fingerprint(i+1))
		}
		if !slices.Equal(c.chunks, chunks) {
			t.Fatalf("n=%d: the refill after DropAll opened or replaced chunks", n)
		}
	}
}

// BenchmarkCacheFill builds a fresh Profile A cache and writes 7000
// distinct pages into it, the arena a paper-write experiment grows to, in
// 64-page runs at spread-out starts as the simulator's multi-page writes
// land. One op is the whole fill, page table included.
func BenchmarkCacheFill(b *testing.B) {
	const cachePages = 32 << 20 >> addr.PageShift // Profile A's 32 MiB
	const pages, run = 7000, 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := New(cachePages)
		if err != nil {
			b.Fatal(err)
		}
		for p := range pages {
			c.Write(addr.LPN(p/run*1031*run+p%run), content.Fingerprint(p+1))
		}
	}
}

func BenchmarkCacheCycle(b *testing.B) {
	c, err := New(512)
	if err != nil {
		b.Fatal(err)
	}
	cycle(c, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(c, i+1)
	}
}

// BenchmarkCacheCrash drops a full cache of dirty pages, the power-loss
// path. The runs case fills it with 64-page requests at random starts, as
// the simulator's multi-page writes do; the scatter case with single
// pages at random. One op is one DropAll.
func BenchmarkCacheCrash(b *testing.B) {
	for _, bc := range []struct {
		name string
		run  int
	}{{"runs", 64}, {"scatter", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			const cachePages = 32 << 20 >> addr.PageShift // Profile A's 32 MiB
			const wssPages = 16 << 30 >> addr.PageShift   // a 16 GB working set
			c, err := New(cachePages)
			if err != nil {
				b.Fatal(err)
			}
			fill := func(round int) {
				for i := 0; i < cachePages; i++ {
					r := uint64(round*cachePages+i) / uint64(bc.run)
					l := addr.LPN(r*2654435761%(wssPages-uint64(bc.run))) + addr.LPN(i%bc.run)
					c.Write(l, content.Fingerprint(i+1))
				}
			}
			fill(0)
			c.DropAll()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fill(i + 1)
				b.StartTimer()
				c.DropAll()
			}
		})
	}
}
