package dram

import (
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
// cycle has sized the slots, map and pop buffer, write → PopDirty →
// FlushDone → DropAll allocates nothing.
func TestCycleAllocatesNothing(t *testing.T) {
	if racedet.Enabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	c := newCache(t, 512)
	cycle(c, 0)
	round := 0
	if n := testing.AllocsPerRun(50, func() { round++; cycle(c, round) }); n != 0 {
		t.Fatalf("steady-state cycle made %v allocs, want 0", n)
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
