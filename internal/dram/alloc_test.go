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
