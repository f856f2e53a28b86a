package ssd

import (
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/power"
	"powerfail/internal/racedet"
	"powerfail/internal/sim"
)

// writeLoop drives one device through host writes: each round submits an
// 8-page write, runs until the ACK, then runs until the flusher has
// drained the cache to flash.
type writeLoop struct {
	k       *sim.Kernel
	dev     *Device
	payload content.Data
	acked   bool
	done    func(error, content.Data)
	waitAck func() bool
	dirty   func() bool
}

// newWriteLoop builds a warmed device. Its blocks are large enough that
// the rounds after warm-up never open a new block: a block's first open
// allocates its page and reverse-map arrays, once per block lifetime,
// which the zero-allocation guard leaves out.
func newWriteLoop(tb testing.TB) *writeLoop {
	tb.Helper()
	p := smallProfile()
	p.PagesPerBlock = 16384
	k := sim.New()
	psu, err := power.New(k, power.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	dev, err := New(k, sim.NewRNG(7), p.Normalize(), psu)
	if err != nil {
		tb.Fatal(err)
	}
	w := &writeLoop{k: k, dev: dev, payload: content.Random(sim.NewRNG(3), 8)}
	w.done = func(err error, _ content.Data) {
		if err != nil {
			tb.Fatal(err)
		}
		w.acked = true
	}
	w.waitAck = func() bool { return !w.acked }
	w.dirty = func() bool { return dev.DirtyCachePages() > 0 }
	for i := 0; i < 64; i++ {
		w.round(i)
	}
	return w
}

func (w *writeLoop) round(i int) {
	w.acked = false
	w.dev.Submit(blockdev.OpWrite, addr.LPN(i%64)*8, 8, w.payload, w.done)
	w.k.RunWhile(w.waitAck)
	w.k.RunWhile(w.dirty)
}

// TestWriteAckDrainAllocatesNothing pins the device's write path: on a
// warmed device, submit → cache insert → ACK → flush → program → journal
// allocates nothing.
func TestWriteAckDrainAllocatesNothing(t *testing.T) {
	if racedet.Enabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	w := newWriteLoop(t)
	i := 64
	if n := testing.AllocsPerRun(50, func() { i++; w.round(i) }); n != 0 {
		t.Fatalf("write submit → ACK → drain made %v allocs, want 0", n)
	}
	if w.dev.Stats().PagesFlushed == 0 {
		t.Fatal("the loop never drained the cache")
	}
}

func BenchmarkWriteAckDrain(b *testing.B) {
	w := newWriteLoop(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4096 == 4095 {
			b.StopTimer()
			w = newWriteLoop(b)
			b.StartTimer()
		}
		w.round(i)
	}
}
