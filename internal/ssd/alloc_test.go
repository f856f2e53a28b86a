package ssd

import (
	"runtime"
	"testing"
	"unsafe"

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

// TestRefusedCommandAllocatesNothing pins the fail-fast answer: a
// command the device refuses (here one past the last page) is answered
// through a pooled command's cached callback, not a new closure.
func TestRefusedCommandAllocatesNothing(t *testing.T) {
	if racedet.Enabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	w := newWriteLoop(t)
	var got error
	done := func(err error, _ content.Data) { got = err }
	waiting := func() bool { return got == nil }
	refuse := func() {
		got = nil
		w.dev.Submit(blockdev.OpRead, addr.LPN(w.dev.prof.UserPages()), 1, content.Data{}, done)
		w.k.RunWhile(waiting)
	}
	refuse()
	if n := testing.AllocsPerRun(50, refuse); n != 0 {
		t.Errorf("refused command: %v allocs, want 0", n)
	}
	if got != ErrOutOfRange || w.dev.freeCmds.InUse() != 0 {
		t.Fatalf("answer %v with %d commands out, want %v and none", got, w.dev.freeCmds.InUse(), ErrOutOfRange)
	}
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

// readLoop drives one device through host reads of three kinds of
// page. Its warm-up writes the 8-page blocks of LPNs [0, 1024) in a
// scattered order, skipping every block whose index is 3 mod 4, and
// drains each write to flash: the skipped blocks stay unmapped, the 32
// blocks written last stay in the 1 MiB DRAM cache, and the rest live
// only on flash. Reads do not fill the cache, so the mix holds.
type readLoop struct {
	k       *sim.Kernel
	dev     *Device
	lpn     addr.LPN // the read in flight
	pending bool
	bad     int // pages read back wrong
	done    func(error, content.Data)
	waiting func() bool
}

// readFP is what page lpn holds after the warm-up.
func readFP(lpn addr.LPN) content.Fingerprint {
	if lpn/8%4 == 3 {
		return content.Zero
	}
	return content.Fingerprint(lpn + 1)
}

func newReadLoop(tb testing.TB) *readLoop {
	tb.Helper()
	p := smallProfile()
	p.PagesPerBlock = 16384
	p.CacheMB = 1
	k := sim.New()
	psu, err := power.New(k, power.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	dev, err := New(k, sim.NewRNG(7), p.Normalize(), psu)
	if err != nil {
		tb.Fatal(err)
	}
	l := &readLoop{k: k, dev: dev}
	l.done = func(err error, res content.Data) {
		if err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < res.Pages(); i++ {
			if res.Page(i) != readFP(l.lpn+addr.LPN(i)) {
				l.bad++
			}
		}
		l.pending = false
	}
	l.waiting = func() bool { return l.pending }
	dirty := func() bool { return dev.DirtyCachePages() > 0 }
	for j := 0; j < 128; j++ {
		b := addr.LPN(j * 37 % 128) // 37 is coprime to 128: every block once
		if b%4 == 3 {
			continue
		}
		fps := make([]content.Fingerprint, 8)
		for i := range fps {
			fps[i] = readFP(b*8 + addr.LPN(i))
		}
		l.pending = true
		dev.Submit(blockdev.OpWrite, b*8, 8, content.Wrap(fps), func(err error, _ content.Data) {
			if err != nil {
				tb.Fatal(err)
			}
			l.pending = false
		})
		k.RunWhile(l.waiting)
		k.RunWhile(dirty)
	}
	for i := 0; i < 64; i++ {
		l.round(i)
	}
	return l
}

// round reads the 64 pages of eight consecutive blocks, two of them
// unmapped, and runs until the answer.
func (l *readLoop) round(i int) {
	l.lpn = addr.LPN(i%16) * 64
	l.pending = true
	l.dev.Submit(blockdev.OpRead, l.lpn, 64, content.Data{}, l.done)
	l.k.RunWhile(l.waiting)
}

// TestHostReadAllocatesNothing pins the device's read path: on a warmed
// device, a read that mixes DRAM-cache hits, flash pages and unmapped
// pages allocates nothing, because its command lends the result from a
// buffer it keeps across reuses; and every page reads back what it holds.
func TestHostReadAllocatesNothing(t *testing.T) {
	if racedet.Enabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	l := newReadLoop(t)
	hits, flashReads := l.dev.CacheStats().Hits, l.dev.Stats().PagesRead
	i := 64
	if n := testing.AllocsPerRun(50, func() { i++; l.round(i) }); n != 0 {
		t.Errorf("host read made %v allocs, want 0", n)
	}
	hits, flashReads = l.dev.CacheStats().Hits-hits, l.dev.Stats().PagesRead-flashReads
	if hits == 0 || flashReads == 0 {
		t.Fatalf("reads made %d cache hits and %d flash page reads, want both", hits, flashReads)
	}
	if l.bad != 0 {
		t.Fatalf("%d pages read back wrong", l.bad)
	}
}

func BenchmarkHostRead(b *testing.B) {
	l := newReadLoop(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.round(i)
	}
	if l.bad != 0 {
		b.Fatalf("%d pages read back wrong", l.bad)
	}
}

// newCost returns the mallocs and heap bytes one New of prof costs, the
// kernel and PSU it hangs on included.
func newCost(tb testing.TB, prof Profile) (allocs float64, bytes uint64) {
	tb.Helper()
	build := func() {
		k := sim.New()
		psu, err := power.New(k, power.DefaultConfig())
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := New(k, sim.NewRNG(7), prof, psu); err != nil {
			tb.Fatal(err)
		}
	}
	const runs = 20
	allocs = testing.AllocsPerRun(runs, build)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		build()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestNewCostIndependentOfCapacity pins a drive's construction cost to
// the blocks it opens, not its geometry: Profile A at 256 GB and at 4 TB
// cost the same, and little. A per-block make sized by the geometry
// anywhere in the stack fails it.
func TestNewCostIndependentOfCapacity(t *testing.T) {
	if racedet.Enabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	small, big := ProfileA(), ProfileA()
	big.CapacityGB = 4096
	if b, s := big.Geometry().Blocks(), small.Geometry().Blocks(); b < 15*s {
		t.Fatalf("4 TB geometry has %d blocks, 256 GB %d", b, s)
	}
	sa, sb := newCost(t, small)
	ba, bb := newCost(t, big)
	t.Logf("New: 256 GB %v allocs %d B, 4 TB %v allocs %d B", sa, sb, ba, bb)
	if sa != ba || sb != bb {
		t.Fatalf("New costs %v allocs %d B at 256 GB but %v allocs %d B at 4 TB", sa, sb, ba, bb)
	}
	if sb >= 64<<10 {
		t.Fatalf("New allocates %d B, want under 64 KiB", sb)
	}
}

// BenchmarkNew builds one Profile A drive, with the kernel and PSU it
// hangs on, per iteration.
func BenchmarkNew(b *testing.B) {
	prof := ProfileA()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.New()
		psu, err := power.New(k, power.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := New(k, sim.NewRNG(uint64(i)), prof, psu); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPageOpIs48Bytes pins the channel op's size: a flush batch holds
// hundreds, and a program's FTL reservation is rebuilt from its lpn and
// ppn rather than stored twice.
func TestPageOpIs48Bytes(t *testing.T) {
	if n := unsafe.Sizeof(pageOp{}); n != 48 {
		t.Fatalf("pageOp is %d bytes, want 48", n)
	}
}
