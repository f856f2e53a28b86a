package dram

import (
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/content"
)

func newCache(t *testing.T, pages int) *Cache {
	t.Helper()
	c, err := New(pages)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestWriteReadHit(t *testing.T) {
	c := newCache(t, 8)
	if !c.Write(3, 0xaa) {
		t.Fatal("write rejected")
	}
	fp, ok := c.Read(3)
	if !ok || fp != 0xaa {
		t.Fatalf("read = %x, %v", fp, ok)
	}
	if _, ok := c.Read(4); ok {
		t.Fatal("miss returned ok")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestOverwriteUpdatesContent(t *testing.T) {
	c := newCache(t, 8)
	c.Write(1, 0x1)
	c.Write(1, 0x2)
	if fp, _ := c.Read(1); fp != 0x2 {
		t.Fatalf("read %x after overwrite", fp)
	}
	if c.Len() != 1 || c.DirtyPages() != 1 {
		t.Fatal("overwrite duplicated the entry")
	}
}

func TestBackpressureWhenAllDirty(t *testing.T) {
	c := newCache(t, 4)
	for i := 0; i < 4; i++ {
		if !c.Write(addr.LPN(i), 1) {
			t.Fatal("early write rejected")
		}
	}
	if c.Write(99, 1) {
		t.Fatal("write accepted into a cache full of dirty pages")
	}
}

func TestCleanEviction(t *testing.T) {
	c := newCache(t, 4)
	for i := 0; i < 4; i++ {
		c.Write(addr.LPN(i), content.Fingerprint(i+1))
	}
	ents := c.PopDirty(4)
	for _, e := range ents {
		c.FlushDone(e.LPN, e.Seq)
	}
	// Cache full of clean pages: a new write evicts the LRU one.
	if !c.Write(50, 0x50) {
		t.Fatal("write rejected despite clean pages")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
	if _, ok := c.Read(0); ok {
		t.Fatal("LRU page survived eviction")
	}
}

func TestPopDirtyFIFO(t *testing.T) {
	c := newCache(t, 16)
	for i := 0; i < 5; i++ {
		c.Write(addr.LPN(10+i), content.Fingerprint(i))
	}
	ents := c.PopDirty(3)
	if len(ents) != 3 {
		t.Fatalf("popped %d", len(ents))
	}
	for i, e := range ents {
		if e.LPN != addr.LPN(10+i) {
			t.Fatalf("pop order wrong: %+v", ents)
		}
	}
	if c.QueuedDirty() != 2 || c.DirtyPages() != 5 {
		t.Fatalf("queued=%d dirty=%d", c.QueuedDirty(), c.DirtyPages())
	}
}

func TestFlushDoneRetires(t *testing.T) {
	c := newCache(t, 8)
	c.Write(1, 0x1)
	e := c.PopDirty(1)[0]
	c.FlushDone(e.LPN, e.Seq)
	if c.DirtyPages() != 0 {
		t.Fatal("flushed page still dirty")
	}
	if fp, ok := c.Read(1); !ok || fp != 0x1 {
		t.Fatal("flushed page lost from cache")
	}
}

// TestOverwriteDuringFlush is the regression test for the flight-count
// bug: data overwritten while its flush is in flight must stay dirty, and
// the dirty accounting must not drift.
func TestOverwriteDuringFlush(t *testing.T) {
	c := newCache(t, 8)
	c.Write(1, 0x1)
	e := c.PopDirty(1)[0]
	c.Write(1, 0x2) // overwrite mid-flush
	c.FlushDone(e.LPN, e.Seq)
	if c.DirtyPages() != 1 {
		t.Fatalf("dirty = %d, want 1 (new data unflushed)", c.DirtyPages())
	}
	if fp, _ := c.Read(1); fp != 0x2 {
		t.Fatal("new data lost")
	}
	e2 := c.PopDirty(1)[0]
	if e2.FP != 0x2 {
		t.Fatalf("second flush carries %x", e2.FP)
	}
	c.FlushDone(e2.LPN, e2.Seq)
	if c.DirtyPages() != 0 {
		t.Fatalf("dirty = %d after final flush, want 0", c.DirtyPages())
	}
}

// TestRepeatedOverwriteFlushCycles drives many overwrite-while-flushing
// rounds and checks the accounting never drifts (the leak that once
// throttled WAW workloads).
func TestRepeatedOverwriteFlushCycles(t *testing.T) {
	c := newCache(t, 8)
	for round := 0; round < 100; round++ {
		c.Write(1, content.Fingerprint(round*2+1))
		e := c.PopDirty(1)[0]
		c.Write(1, content.Fingerprint(round*2+2))
		c.FlushDone(e.LPN, e.Seq)
		e2 := c.PopDirty(1)[0]
		c.FlushDone(e2.LPN, e2.Seq)
		if got := c.DirtyPages(); got != 0 {
			t.Fatalf("round %d: dirty = %d, want 0", round, got)
		}
	}
}

func TestFlushFailedRequeuesFront(t *testing.T) {
	c := newCache(t, 8)
	c.Write(1, 0x1)
	c.Write(2, 0x2)
	ents := c.PopDirty(2)
	c.FlushFailed(ents[0].LPN, ents[0].Seq)
	c.FlushFailed(ents[1].LPN, ents[1].Seq)
	if c.QueuedDirty() != 2 {
		t.Fatalf("queued = %d after failed flush", c.QueuedDirty())
	}
	// Failed pages go back to the front (oldest-first preserved).
	re := c.PopDirty(2)
	if re[0].LPN != 2 || re[1].LPN != 1 {
		t.Logf("requeue order: %+v (front-insertion reverses pairs)", re)
	}
}

func TestDropAllCountsDirty(t *testing.T) {
	c := newCache(t, 16)
	for i := 0; i < 6; i++ {
		c.Write(addr.LPN(i), 1)
	}
	ents := c.PopDirty(2) // 2 flushing + 4 queued, all at risk
	_ = ents
	if lost := c.DropAll(); lost != 6 {
		t.Fatalf("DropAll lost = %d, want 6", lost)
	}
	if c.Len() != 0 || c.DirtyPages() != 0 {
		t.Fatal("cache not empty after DropAll")
	}
}

func TestDropAllSparesCleanCount(t *testing.T) {
	c := newCache(t, 16)
	c.Write(1, 0x1)
	e := c.PopDirty(1)[0]
	c.FlushDone(e.LPN, e.Seq)
	if lost := c.DropAll(); lost != 0 {
		t.Fatalf("clean page counted as lost: %d", lost)
	}
}

func TestInvalidate(t *testing.T) {
	c := newCache(t, 8)
	c.Write(1, 0x1)
	c.Invalidate(1)
	if _, ok := c.Read(1); ok {
		t.Fatal("invalidated page still readable")
	}
	if c.DirtyPages() != 0 {
		t.Fatal("invalidated dirty page still counted")
	}
	c.Invalidate(99) // no-op must not panic
}

func TestStaleFlushDoneIgnored(t *testing.T) {
	c := newCache(t, 8)
	c.Write(1, 0x1)
	e := c.PopDirty(1)[0]
	c.FlushDone(99, e.Seq) // wrong lpn: no-op
	c.FlushDone(e.LPN, e.Seq)
	c.FlushDone(e.LPN, e.Seq) // duplicate: no-op
	if c.DirtyPages() != 0 {
		t.Fatal("accounting broken by stale FlushDone")
	}
}

func TestCapValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := New(-5); err == nil {
		t.Fatal("negative capacity accepted")
	}
	c := newCache(t, 7)
	if c.Cap() != 7 {
		t.Fatal("Cap wrong")
	}
}

func TestPopDirtyZero(t *testing.T) {
	c := newCache(t, 4)
	c.Write(1, 1)
	if got := c.PopDirty(0); got != nil {
		t.Fatal("PopDirty(0) returned entries")
	}
}
