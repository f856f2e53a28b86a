package array

import (
	"slices"
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/blockdev/blockdevtest"
	"powerfail/internal/content"
	"powerfail/internal/hdd"
	"powerfail/internal/power"
	"powerfail/internal/sim"
	"powerfail/internal/ssd"
)

// smallSSD keeps member FTL maps tiny.
func smallSSD() ssd.Profile {
	p := ssd.ProfileA()
	p.CapacityGB = 1
	p.Channels = 4
	p.Dies = 4
	return p.Normalize()
}

func raidConfig(level Level, n int) Config {
	members := make([]ssd.Profile, n)
	for i := range members {
		members[i] = smallSSD()
	}
	return Config{Level: level, Members: members}
}

type rig struct {
	k   *sim.Kernel
	psu *power.PSU
	arr *Array
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	k := sim.New()
	psu, err := power.New(k, power.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	arr, err := New(k, sim.NewRNG(7), cfg, psu)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, psu: psu, arr: arr}
}

func (r *rig) write(t *testing.T, lpn addr.LPN, data content.Data) error {
	t.Helper()
	var out error
	done := false
	r.arr.Submit(blockdev.OpWrite, lpn, data.Pages(), data, func(err error, _ content.Data) {
		out = err
		done = true
	})
	r.k.RunWhile(func() bool { return !done })
	if !done {
		t.Fatal("write never completed")
	}
	return out
}

func (r *rig) read(t *testing.T, lpn addr.LPN, pages int) (content.Data, error) {
	t.Helper()
	var out content.Data
	var rerr error
	done := false
	r.arr.Submit(blockdev.OpRead, lpn, pages, content.Data{}, func(err error, d content.Data) {
		out, rerr = keep(d), err
		done = true
	})
	r.k.RunWhile(func() bool { return !done })
	if !done {
		t.Fatal("read never completed")
	}
	return out, rerr
}

// keep copies a lent read result for a caller that holds it after its
// done returns.
func keep(d content.Data) content.Data {
	buf := make([]content.Fingerprint, d.Pages())
	d.CopyTo(buf)
	return content.Wrap(buf)
}

// recordsFree fails t unless every pooled record of a is back in its
// pool, as it must be once the array is idle.
func recordsFree(t *testing.T, a *Array) {
	t.Helper()
	if a.ops.InUse() != 0 || a.chunks.InUse() != 0 || a.calls.InUse() != 0 {
		t.Fatalf("pooled records not all free: %d ops, %d chunks, %d calls in use",
			a.ops.InUse(), a.chunks.InUse(), a.calls.InUse())
	}
}

// fault cuts the shared supply, lets the rail fully discharge, restores
// power, and waits until the whole array answers again.
func (r *rig) fault(t *testing.T) {
	t.Helper()
	r.psu.PowerOff()
	r.k.RunFor(2 * sim.Second)
	r.psu.PowerOn()
	r.k.RunFor(6 * sim.Second)
	if !r.arr.Ready() {
		t.Fatal("array not ready after power restore")
	}
}

func TestGeometryRAID0(t *testing.T) {
	r := newRig(t, raidConfig(RAID0, 3))
	member := r.arr.Drive(0).UserPages()
	if got := r.arr.UserPages(); got != 3*member {
		t.Fatalf("raid0 capacity %d, want %d", got, 3*member)
	}
	sp := r.arr.Config().StripePages
	// Consecutive chunks land on consecutive members, same row.
	crs := r.arr.chunksOf(0, 3*sp)
	if len(crs) != 3 {
		t.Fatalf("chunks: %d", len(crs))
	}
	for i, cr := range crs {
		if cr.member != i || cr.mlpn != 0 || cr.n != sp {
			t.Fatalf("chunk %d: %+v", i, cr)
		}
	}
	// The next stripe starts one row down on member 0.
	crs = r.arr.chunksOf(addr.LPN(3*sp), 1)
	if crs[0].member != 0 || crs[0].mlpn != addr.LPN(sp) {
		t.Fatalf("wrap chunk: %+v", crs[0])
	}
}

func TestGeometryRAID5(t *testing.T) {
	r := newRig(t, raidConfig(RAID5, 4))
	member := r.arr.Drive(0).UserPages()
	sp := int64(r.arr.Config().StripePages)
	if got := r.arr.UserPages(); got != 3*(member/sp)*sp {
		t.Fatalf("raid5 capacity %d, want %d", got, 3*(member/sp)*sp)
	}
	// Every stripe uses a distinct parity member and never places data on it.
	seenParity := map[int]bool{}
	for s := int64(0); s < 4; s++ {
		first := addr.LPN(s * 3 * sp) // 3 data chunks per stripe
		crs := r.arr.chunksOf(first, int(3*sp))
		par := crs[0].parity
		seenParity[par] = true
		for _, cr := range crs {
			if cr.parity != par {
				t.Fatalf("stripe %d: parity moved within stripe: %+v", s, crs)
			}
			if cr.member == par {
				t.Fatalf("stripe %d: data chunk on parity member: %+v", s, cr)
			}
			if cr.stripe != s {
				t.Fatalf("stripe id %d, want %d", cr.stripe, s)
			}
		}
	}
	if len(seenParity) != 4 {
		t.Fatalf("parity rotated over %d members, want 4", len(seenParity))
	}
}

func TestRAID0RoundTrip(t *testing.T) {
	r := newRig(t, raidConfig(RAID0, 2))
	payload := content.Random(sim.NewRNG(1), 64) // spans multiple chunks
	if err := r.write(t, 100, payload); err != nil {
		t.Fatal(err)
	}
	got, err := r.read(t, 100, 64)
	if err != nil || !got.Equal(payload) {
		t.Fatalf("raid0 round trip: err=%v equal=%v", err, got.Equal(payload))
	}
	ms := r.arr.Members()
	if ms[0].Writes == 0 || ms[1].Writes == 0 {
		t.Fatalf("striping did not touch both members: %+v", ms)
	}
}

func TestRAID1RoundTripAndRotation(t *testing.T) {
	r := newRig(t, raidConfig(RAID1, 2))
	payload := content.Random(sim.NewRNG(2), 8)
	if err := r.write(t, 40, payload); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		got, err := r.read(t, 40, 8)
		if err != nil || !got.Equal(payload) {
			t.Fatalf("mirror read %d: err=%v", i, err)
		}
	}
	ms := r.arr.Members()
	if ms[0].Writes != 1 || ms[1].Writes != 1 {
		t.Fatalf("mirror writes: %+v", ms)
	}
	if ms[0].Reads == 0 || ms[1].Reads == 0 {
		t.Fatalf("reads did not rotate: %+v", ms)
	}
}

func TestRAID5RoundTripAndParity(t *testing.T) {
	r := newRig(t, raidConfig(RAID5, 3))
	sp := r.arr.Config().StripePages
	payload := content.Random(sim.NewRNG(3), 2*sp) // two chunks, one stripe
	if err := r.write(t, 0, payload); err != nil {
		t.Fatal(err)
	}
	got, err := r.read(t, 0, 2*sp)
	if err != nil || !got.Equal(payload) {
		t.Fatalf("raid5 round trip: err=%v", err)
	}
	if r.arr.Stats().ParityRMWs == 0 {
		t.Fatal("no parity RMW cycles recorded")
	}
	// Reconstruction: XOR of the two siblings of any row must give the data.
	crs := r.arr.chunksOf(0, 2*sp)
	for _, cr := range crs {
		var sib []int
		for m := 0; m < 3; m++ {
			if m != cr.member {
				sib = append(sib, m)
			}
		}
		direct := readMember(t, r, cr.member, cr.mlpn, cr.n)
		x0 := readMember(t, r, sib[0], cr.mlpn, cr.n)
		x1 := readMember(t, r, sib[1], cr.mlpn, cr.n)
		for i := 0; i < cr.n; i++ {
			want := content.Fingerprint(uint64(x0.Page(i)) ^ uint64(x1.Page(i)))
			if direct.Page(i) != want {
				t.Fatalf("parity inconsistent at chunk %+v page %d", cr, i)
			}
		}
	}
}

func readMember(t *testing.T, r *rig, m int, lpn addr.LPN, pages int) content.Data {
	t.Helper()
	var out content.Data
	done := false
	r.arr.Drive(m).Submit(blockdev.OpRead, lpn, pages, content.Data{}, func(err error, d content.Data) {
		if err != nil {
			t.Fatalf("member %d read: %v", m, err)
		}
		out = keep(d)
		done = true
	})
	r.k.RunWhile(func() bool { return !done })
	return out
}

func TestArrayFaultRecovery(t *testing.T) {
	for _, level := range []Level{RAID0, RAID1, RAID5} {
		n := 2
		if level == RAID5 {
			n = 3
		}
		r := newRig(t, raidConfig(level, n))
		payload := content.Random(sim.NewRNG(4), 4)
		if err := r.write(t, 10, payload); err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		readyFired := 0
		r.arr.NotifyReady(func() { readyFired++ })
		r.fault(t)
		if readyFired == 0 {
			t.Fatalf("%v: composite ready notification never fired", level)
		}
		if _, err := r.read(t, 10, 4); err != nil {
			t.Fatalf("%v: read after recovery: %v", level, err)
		}
	}
}

// TestAttribute: a striped level charges the member whose chunk holds
// each page, never the stripe's parity members; RAID-1 charges every
// mirror.
func TestAttribute(t *testing.T) {
	a := newRig(t, raidConfig(RAID5, 3)).arr
	sp := a.Config().StripePages
	first, second := a.chunkAt(0, 0, 2*sp).member, a.chunkAt(0, sp, 2*sp).member
	if got := a.Attribute(nil, 0, 1); !slices.Equal(got, []int{first}) {
		t.Fatalf("raid5 attribution %v, want the data member [%d]", got, first)
	}
	// Full stripe: both data members, not the parity member.
	if got := a.Attribute(nil, 0, 2*sp); !slices.Equal(got, []int{first, second}) {
		t.Fatalf("raid5 full-stripe attribution %v, want the data members [%d %d]", got, first, second)
	}

	m := newRig(t, raidConfig(RAID1, 3))
	if got := m.arr.Attribute(nil, 7, 2); len(got) != 3 {
		t.Fatalf("raid1 attribution %v, want all mirrors", got)
	}
}

func cacheConfig(policy CachePolicy) Config {
	back := hdd.DefaultProfile()
	back.CapacityGB = 2
	return Config{Level: Cached, Cache: smallSSD(), Backing: back, Policy: policy}
}

// TestCacheHitMissAndDestage runs over members that poison each read
// result they lend as soon as the loan ends: a destage writes the page
// it read from the cache to the backing drive after that, so it must
// write a copy.
func TestCacheHitMissAndDestage(t *testing.T) {
	r := newRig(t, cacheConfig(WriteBack))
	cache := blockdevtest.NewLender(r.k, r.arr.members[cacheIdx])
	r.arr.members[cacheIdx] = cache
	r.arr.members[backingIdx] = blockdevtest.NewLender(r.k, r.arr.members[backingIdx])
	payload := content.Random(sim.NewRNG(5), 8)
	if err := r.write(t, 100, payload); err != nil {
		t.Fatal(err)
	}
	if r.arr.DirtyLines() != 8 {
		t.Fatalf("dirty lines %d, want 8", r.arr.DirtyLines())
	}
	got, err := r.read(t, 100, 8)
	if err != nil || !got.Equal(payload) {
		t.Fatalf("cached read: err=%v", err)
	}
	if r.arr.Stats().CacheHits != 8 {
		t.Fatalf("hits %d, want 8", r.arr.Stats().CacheHits)
	}
	if _, err := r.read(t, 5000, 4); err != nil {
		t.Fatal(err)
	}
	if r.arr.Stats().CacheMisses != 4 {
		t.Fatalf("misses %d, want 4", r.arr.Stats().CacheMisses)
	}
	// Destage drains the dirty population onto the backing drive.
	r.k.RunFor(2 * sim.Second)
	if r.arr.DirtyLines() != 0 {
		t.Fatalf("dirty lines %d after destage window", r.arr.DirtyLines())
	}
	if r.arr.Stats().Destages == 0 || cache.Lent == 0 {
		t.Fatalf("%d destages and %d lent cache reads, want both", r.arr.Stats().Destages, cache.Lent)
	}
	back := readBacking(t, r, 100, 8)
	if !back.Equal(payload) {
		t.Fatal("backing drive content differs after destage")
	}
}

// TestCachedReadSplitsHitAndMissRuns: hits on slots 0..3 and misses at
// backing pages 4..7 are adjacent numbers on different members, so the
// read must still go out as two runs; slot 4 holds another page's line,
// which a merged run would return for page 4.
func TestCachedReadSplitsHitAndMissRuns(t *testing.T) {
	r := newRig(t, cacheConfig(WriteThrough))
	hits := content.Random(sim.NewRNG(15), 4)
	if err := r.write(t, 0, hits); err != nil { // slots 0..3
		t.Fatal(err)
	}
	if err := r.write(t, 100, content.Random(sim.NewRNG(16), 1)); err != nil { // slot 4
		t.Fatal(err)
	}
	misses := content.Random(sim.NewRNG(17), 4)
	done := false
	r.arr.Backing().Submit(blockdev.OpWrite, 4, 4, misses, func(err error, _ content.Data) {
		if err != nil {
			t.Fatalf("backing write: %v", err)
		}
		done = true
	})
	r.k.RunWhile(func() bool { return !done })
	got, err := r.read(t, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Slice(0, 4).Equal(hits) || !got.Slice(4, 4).Equal(misses) {
		t.Fatal("a read of hits then misses returned other pages' data")
	}
}

func readBacking(t *testing.T, r *rig, lpn addr.LPN, pages int) content.Data {
	t.Helper()
	var out content.Data
	done := false
	r.arr.Backing().Submit(blockdev.OpRead, lpn, pages, content.Data{}, func(err error, d content.Data) {
		if err != nil {
			t.Fatalf("backing read: %v", err)
		}
		out = keep(d)
		done = true
	})
	r.k.RunWhile(func() bool { return !done })
	return out
}

// TestWriteThroughDurableUnderFault / TestWriteBackLosesUnderFault: the
// core acceptance pair. Write-through acknowledges only after the durable
// backend has the data, so a fault right after the ACK loses nothing;
// write-back acknowledges out of the cache SSD's volatile DRAM, so the
// same fault schedule loses acknowledged lines.
func TestWriteThroughDurableUnderFault(t *testing.T) {
	r := newRig(t, cacheConfig(WriteThrough))
	rng := sim.NewRNG(6)
	type rec struct {
		lpn  addr.LPN
		data content.Data
	}
	var acked []rec
	for cycle := 0; cycle < 4; cycle++ {
		for i := 0; i < 6; i++ {
			p := rec{lpn: addr.LPN(rng.Intn(1 << 16)), data: content.Random(rng, 1+rng.Intn(8))}
			if err := r.write(t, p.lpn, p.data); err == nil {
				acked = append(acked, p)
			}
		}
		r.fault(t)
	}
	if len(acked) == 0 {
		t.Fatal("no writes acknowledged")
	}
	if r.arr.Stats().LinesDropped == 0 {
		t.Fatal("write-through recovery should drop the cache")
	}
	for _, p := range acked {
		got, err := r.read(t, p.lpn, p.data.Pages())
		if err != nil {
			t.Fatalf("verify read: %v", err)
		}
		if !got.Equal(p.data) {
			t.Fatalf("write-through lost acknowledged data at %v", p.lpn)
		}
	}
	recordsFree(t, r.arr)
}

func TestWriteBackLosesUnderFault(t *testing.T) {
	r := newRig(t, cacheConfig(WriteBack))
	rng := sim.NewRNG(6)
	lost := 0
	for cycle := 0; cycle < 4; cycle++ {
		type rec struct {
			lpn  addr.LPN
			data content.Data
		}
		var acked []rec
		for i := 0; i < 6; i++ {
			p := rec{lpn: addr.LPN(rng.Intn(1 << 16)), data: content.Random(rng, 1+rng.Intn(8))}
			if err := r.write(t, p.lpn, p.data); err == nil {
				acked = append(acked, p)
			}
		}
		// Cut immediately after the last ACK: dirty lines sit in the cache
		// SSD's volatile DRAM and die with it.
		r.fault(t)
		for _, p := range acked {
			got, err := r.read(t, p.lpn, p.data.Pages())
			if err != nil || !got.Equal(p.data) {
				lost++
			}
		}
	}
	if lost == 0 {
		t.Fatal("write-back cache never lost acknowledged data under faults")
	}
	// Idle once the destage has drained the dirty lines.
	r.k.RunFor(2 * sim.Second)
	if n := r.arr.DirtyLines(); n != 0 {
		t.Fatalf("%d dirty lines after the destage window", n)
	}
	recordsFree(t, r.arr)
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Level: RAID0, Members: []ssd.Profile{smallSSD()}},
		{Level: RAID1, Members: []ssd.Profile{smallSSD()}},
		{Level: RAID5, Members: []ssd.Profile{smallSSD(), smallSSD()}},
		{Level: Cached, Members: []ssd.Profile{smallSSD()}},
		{Level: Level(99)},
	}
	for i, cfg := range bad {
		if err := cfg.withDefaults().Validate(); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
	if err := raidConfig(RAID5, 3).withDefaults().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRange(t *testing.T) {
	r := newRig(t, raidConfig(RAID0, 2))
	done := false
	var gotErr error
	r.arr.Submit(blockdev.OpWrite, addr.LPN(r.arr.UserPages()), 1, content.Zeroes(1), func(err error, _ content.Data) {
		gotErr = err
		done = true
	})
	r.k.RunWhile(func() bool { return !done })
	if gotErr == nil {
		t.Fatal("out-of-range write accepted")
	}
}

func TestArrayDeterminism(t *testing.T) {
	run := func() (Stats, []MemberStats, content.Data) {
		r := newRigT(cacheConfig(WriteBack), 7)
		rng := sim.NewRNG(9)
		for i := 0; i < 10; i++ {
			lpn := addr.LPN(rng.Intn(1 << 14))
			data := content.Random(rng, 1+rng.Intn(4))
			done := false
			r.arr.Submit(blockdev.OpWrite, lpn, data.Pages(), data, func(error, content.Data) { done = true })
			r.k.RunWhile(func() bool { return !done })
		}
		r.psu.PowerOff()
		r.k.RunFor(2 * sim.Second)
		r.psu.PowerOn()
		r.k.RunFor(6 * sim.Second)
		var out content.Data
		done := false
		r.arr.Submit(blockdev.OpRead, 0, 8, content.Data{}, func(_ error, d content.Data) {
			out = keep(d)
			done = true
		})
		r.k.RunWhile(func() bool { return !done })
		return r.arr.Stats(), r.arr.Members(), out
	}
	s1, m1, d1 := run()
	s2, m2, d2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged:\n%+v\n%+v", s1, s2)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("member %d diverged: %+v vs %+v", i, m1[i], m2[i])
		}
	}
	if !d1.Equal(d2) {
		t.Fatal("read-back content diverged")
	}
}

// newRigT builds a rig without a testing.T, its members forked from
// seed.
func newRigT(cfg Config, seed uint64) *rig {
	k := sim.New()
	psu, err := power.New(k, power.DefaultConfig())
	if err != nil {
		panic(err)
	}
	arr, err := New(k, sim.NewRNG(seed), cfg, psu)
	if err != nil {
		panic(err)
	}
	return &rig{k: k, psu: psu, arr: arr}
}

// TestBypassDoesNotResurrectStaleDestage: when a full cache forces a
// write to bypass to the backing drive, the overlapping dirty line is
// invalidated and its slot reused — but its old dirty-FIFO entry must
// never destage the reused slot's content to the old backing address,
// and the dirty line may only be dropped once the bypass write is
// durable.
func TestBypassDoesNotResurrectStaleDestage(t *testing.T) {
	r := newRig(t, cacheConfig(WriteBack))
	r.arr.ssdPages = 4 // white-box: shrink the cache to 4 slots

	base := content.Random(sim.NewRNG(10), 4)
	if err := r.write(t, 0, base); err != nil { // fills every slot, all dirty
		t.Fatal(err)
	}
	bypass := content.Random(sim.NewRNG(11), 2)
	if err := r.write(t, 3, bypass); err != nil { // lpn 4 has no slot: bypass
		t.Fatal(err)
	}
	if r.arr.Stats().Bypasses == 0 {
		t.Fatal("bypass path not exercised")
	}
	reuse := content.Random(sim.NewRNG(12), 1)
	if err := r.write(t, 20, reuse); err != nil { // reuses lpn 3's freed slot
		t.Fatal(err)
	}
	r.k.RunFor(2 * sim.Second) // let every destage settle

	got, err := r.read(t, 3, 2)
	if err != nil || !got.Equal(bypass) {
		t.Fatalf("bypass write lost (err=%v)", err)
	}
	if back := readBacking(t, r, 3, 1); back.Page(0) != bypass.Page(0) {
		t.Fatal("stale destage resurrected old content on the backing drive")
	}
	got, err = r.read(t, 20, 1)
	if err != nil || !got.Equal(reuse) {
		t.Fatalf("slot-reusing write lost (err=%v)", err)
	}
	if back := readBacking(t, r, 0, 3); !back.Equal(base.Slice(0, 3)) {
		t.Fatal("untouched dirty lines did not destage their own content")
	}
}

// TestFlushDuringBypassDoesNotHang: OpFlush while a bypass write holds a
// pin on a dirty line must complete — destageAll drains the queue before
// destaging, so the pinned line's synchronous re-queue cannot livelock it.
func TestFlushDuringBypassDoesNotHang(t *testing.T) {
	r := newRig(t, cacheConfig(WriteBack))
	r.arr.ssdPages = 4
	if err := r.write(t, 0, content.Random(sim.NewRNG(13), 4)); err != nil {
		t.Fatal(err)
	}
	writeDone, flushDone := false, false
	r.arr.Submit(blockdev.OpWrite, 3, 2, content.Random(sim.NewRNG(14), 2),
		func(error, content.Data) { writeDone = true })
	// The bypass backing write is now in flight and pins the dirty line.
	r.arr.Submit(blockdev.OpFlush, 0, 0, content.Data{},
		func(error, content.Data) { flushDone = true })
	r.k.RunWhile(func() bool { return !(writeDone && flushDone) })
	if !writeDone || !flushDone {
		t.Fatalf("hung: write=%v flush=%v", writeDone, flushDone)
	}
}
