package main

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"powerfail"
	"powerfail/internal/addr"
	"powerfail/internal/array"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/core"
	"powerfail/internal/dram"
	"powerfail/internal/flash"
	"powerfail/internal/ftl"
	"powerfail/internal/power"
	"powerfail/internal/sim"
	"powerfail/internal/ssd"
	gen "powerfail/internal/workload"
)

// A probe times one public function of one layer in a tight loop. The
// figures are ns/op and allocs/op; work the probe needs between
// operations runs with the timer stopped.
type probe struct {
	name string
	fn   func(b *testing.B)
}

// probeResult is one probe's measurement.
type probeResult struct {
	name              string
	nsPerOp, allocsOp float64
}

// probes lists the layer probes. Sizes follow the workloads: the FTL,
// flash and SSD probes use Profile A at its full 256 GB.
var probes = []probe{
	{"sim.schedule_fire", probeScheduleFire},
	{"dram.write", probeDRAMWrite},
	{"dram.flush", probeDRAMFlush},
	{"dram.crash", probeDRAMCrash},
	{"ftl.write", probeFTLWrite},
	{"ftl.crash", probeFTLCrash},
	{"flash.program", probeFlashProgram},
	{"flash.read", probeFlashRead},
	{"blockdev.submit_complete", probeBlockdev},
	{"core.classify", probeClassify},
	{"array.rmw", probeArrayRMW},
	{"ssd.new", probeSSDNew},
}

// runProbes runs every probe for about benchtime each.
func runProbes(benchtime time.Duration) ([]probeResult, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		return nil, err
	}
	out := make([]probeResult, 0, len(probes))
	for _, p := range probes {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			p.fn(b)
		})
		if r.N == 0 {
			return nil, fmt.Errorf("probe %s failed", p.name)
		}
		out = append(out, probeResult{
			name:     p.name,
			nsPerOp:  float64(r.T.Nanoseconds()) / float64(r.N),
			allocsOp: float64(r.MemAllocs) / float64(r.N),
		})
	}
	return out, nil
}

// fp is a distinct page fingerprint for index i.
func fp(i int) content.Fingerprint { return content.Mix(content.Zero, uint64(i)+1) }

// scatter maps i onto a pseudo-random page of a span, as the random
// workloads address their working set.
func scatter(i int, span int64) addr.LPN { return addr.LPN(uint64(i) * 2654435761 % uint64(span)) }

// wssPages is the paper workload's 16 GB working set in pages.
const wssPages = 16 << 30 / addr.PageBytes

func probeScheduleFire(b *testing.B) {
	k := sim.New()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(sim.Duration(i%97), fn)
		k.Step()
	}
}

func newCache(b *testing.B) *dram.Cache {
	c, err := dram.New(powerfail.ProfileA().CachePages())
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// drain flushes every dirty page of c, as the device's flusher does.
func drain(c *dram.Cache) {
	for _, e := range c.PopDirty(c.DirtyPages()) {
		c.FlushDone(e.LPN, e.Seq)
	}
}

// fill writes the cache full of dirty pages.
func fill(c *dram.Cache, from int) {
	for i := 0; i < c.Cap(); i++ {
		c.Write(scatter(from+i, wssPages), fp(from+i))
	}
}

// probeDRAMWrite inserts host pages into the write-back cache; a full
// cache is drained with the timer stopped, so steady state evicts clean
// pages.
func probeDRAMWrite(b *testing.B) {
	c := newCache(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Write(scatter(i, wssPages), fp(i)) {
			b.StopTimer()
			drain(c)
			b.StartTimer()
			c.Write(scatter(i, wssPages), fp(i))
		}
	}
}

// probeDRAMFlush retires one dirty page per op: PopDirty then FlushDone.
func probeDRAMFlush(b *testing.B) {
	c := newCache(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.QueuedDirty() == 0 {
			b.StopTimer()
			fill(c, i)
			b.StartTimer()
		}
		for _, e := range c.PopDirty(1) {
			c.FlushDone(e.LPN, e.Seq)
		}
	}
}

// probeDRAMCrash drops a cache full of dirty pages, the power-loss path.
func probeDRAMCrash(b *testing.B) {
	c := newCache(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill(c, i)
		b.StartTimer()
		c.DropAll()
	}
}

func newChip(b *testing.B) *flash.Chip {
	chip, err := flash.New(powerfail.ProfileA().ChipConfig(), sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	return chip
}

func newFTL(b *testing.B) (*ftl.FTL, *flash.Chip) {
	chip := newChip(b)
	f, err := ftl.New(chip, powerfail.ProfileA().FTLConfig())
	if err != nil {
		b.Fatal(err)
	}
	return f, chip
}

// probeFTLWrite maps one random page of the working set per op, with the
// journal committed whenever a batch is due, as the device does.
func probeFTLWrite(b *testing.B) {
	f, _ := newFTL(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := f.BeginWrite(scatter(i, wssPages))
		if err != nil {
			b.Fatal(err)
		}
		f.CompleteWrite(t, sim.Time(i))
		if f.CommitDue() {
			f.CommitJournal()
		}
	}
}

// probeFTLCrash crashes the FTL with one journal batch of programmed but
// uncommitted mappings at risk.
func probeFTLCrash(b *testing.B) {
	f, chip := newFTL(b)
	batch := f.Config().JournalBatchPages
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < batch; j++ {
			t, err := f.BeginWrite(scatter(n, wssPages))
			if err != nil {
				b.Fatal(err)
			}
			if err := chip.Program(t.PPN, fp(n)); err != nil {
				b.Fatal(err)
			}
			f.CompleteWrite(t, sim.Time(n))
			n++
		}
		b.StartTimer()
		f.Crash(sim.Time(n))
	}
}

// probeFlashProgram programs pages in order, block after block.
func probeFlashProgram(b *testing.B) {
	chip := newChip(b)
	pages := chip.Geometry().Pages()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := chip.Program(addr.PPN(int64(i)%pages), fp(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// probeFlashRead reads programmed pages through the ECC model.
func probeFlashRead(b *testing.B) {
	chip := newChip(b)
	const programmed = 1 << 16
	for i := 0; i < programmed; i++ {
		if err := chip.Program(addr.PPN(i), fp(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chip.Read(addr.PPN(i % programmed)); err != nil {
			b.Fatal(err)
		}
	}
}

// nullDevice completes every sub-request after a fixed latency without
// allocating, so the probe isolates the block layer's own cost.
type nullDevice struct {
	k    *sim.Kernel
	free []*nullDone
}

type nullDone struct {
	done func(error, content.Data)
	fn   func()
}

// Submit implements blockdev.Device.
func (d *nullDevice) Submit(_ blockdev.Op, _ addr.LPN, _ int, _ content.Data, done func(error, content.Data)) {
	var r *nullDone
	if n := len(d.free); n > 0 {
		r, d.free = d.free[n-1], d.free[:n-1]
	} else {
		r = &nullDone{}
		r.fn = func() {
			done := r.done
			r.done = nil
			d.free = append(d.free, r)
			done(nil, content.Data{})
		}
	}
	r.done = done
	d.k.After(50*sim.Microsecond, r.fn)
}

// probeBlockdev drives one pooled 8-page write through submit, dispatch
// and completion over the null device.
func probeBlockdev(b *testing.B) {
	k := sim.New()
	q, err := blockdev.New(k, &nullDevice{k: k}, nil, blockdev.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	payload := content.Zeroes(8)
	done := func(*blockdev.Request) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := q.NewRequest()
		req.Op = blockdev.OpWrite
		req.LPN = addr.LPN(i%1024) * 8
		req.Pages = 8
		req.Data = payload
		req.Done = done
		q.Submit(req)
		k.Run()
	}
}

// probeClassify verifies a completed 8-page write whose read-back matches,
// the common case of every post-fault verification pass. The analyzer's
// recheck set is aged out with the timer stopped.
func probeClassify(b *testing.B) {
	k := sim.New()
	a := core.NewAnalyzer(k, sim.Second)
	want := content.Random(sim.NewRNG(1), 8)
	pkts := make([]core.Packet, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(pkts)
		if j == 0 {
			b.StopTimer()
			a.VerifyCandidates(sim.Time(0).Add(sim.Minute))
			for p := range pkts {
				pkts[p] = core.Packet{Op: gen.OpWrite, LPN: addr.LPN(p * 8), Pages: 8, Want: want, Completed: true}
			}
			b.StartTimer()
		}
		a.Classify(&pkts[j], want, 0)
	}
}

// probeArrayRMW submits one-page writes to a RAID-5 of four 8 GB Profile A
// members and runs the simulation until each completes: the parity
// read-modify-write, its stripe lock and the members' device work.
func probeArrayRMW(b *testing.B) {
	member := powerfail.ProfileA()
	member.CapacityGB = 8
	k := sim.New()
	psu, err := power.New(k, power.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	arr, err := array.New(k, sim.NewRNG(1), powerfail.RAIDConfig(powerfail.RAID5, 4, member), psu)
	if err != nil {
		b.Fatal(err)
	}
	pending := false
	done := func(err error, _ content.Data) {
		if err != nil {
			b.Fatal(err)
		}
		pending = false
	}
	span := arr.UserPages()
	running := func() bool { return pending }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pending = true
		arr.Submit(blockdev.OpWrite, scatter(i, span), 1, content.Make(fp(i)), done)
		k.RunWhile(running)
	}
	b.StopTimer()
	if arr.Stats().ParityRMWs < int64(b.N) {
		b.Fatalf("%d parity RMWs for %d small writes", arr.Stats().ParityRMWs, b.N)
	}
}

// probeSSDNew builds a 256 GB Profile A drive on a fresh kernel and PSU,
// the device share of every paper-write experiment's set-up.
func probeSSDNew(b *testing.B) {
	prof := powerfail.ProfileA()
	for i := 0; i < b.N; i++ {
		k := sim.New()
		psu, err := power.New(k, power.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ssd.New(k, sim.NewRNG(uint64(i)), prof, psu); err != nil {
			b.Fatal(err)
		}
	}
}
