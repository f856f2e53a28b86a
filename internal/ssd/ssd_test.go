package ssd

import (
	"errors"
	"fmt"
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/flash"
	"powerfail/internal/power"
	"powerfail/internal/sim"
)

// smallProfile keeps FTL maps tiny for device-level tests.
func smallProfile() Profile {
	p := ProfileA()
	p.CapacityGB = 1
	p.Channels = 4
	p.Dies = 4
	return p.Normalize()
}

type rig struct {
	k   *sim.Kernel
	psu *power.PSU
	dev *Device
}

func newRig(t *testing.T, prof Profile) *rig {
	t.Helper()
	k := sim.New()
	psu, err := power.New(k, power.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev, err := New(k, sim.NewRNG(7), prof, psu)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, psu: psu, dev: dev}
}

func (r *rig) write(t *testing.T, lpn addr.LPN, data content.Data) error {
	t.Helper()
	var out error
	done := false
	r.dev.Submit(blockdev.OpWrite, lpn, data.Pages(), data, func(err error, _ content.Data) {
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
	r.dev.Submit(blockdev.OpRead, lpn, pages, content.Data{}, func(err error, d content.Data) {
		out, rerr = d, err
		done = true
	})
	r.k.RunWhile(func() bool { return !done })
	if !done {
		t.Fatal("read never completed")
	}
	return out, rerr
}

func (r *rig) flush(t *testing.T) {
	t.Helper()
	done := false
	r.dev.Submit(blockdev.OpFlush, 0, 0, content.Data{}, func(error, content.Data) { done = true })
	r.k.RunWhile(func() bool { return !done })
	if !done {
		t.Fatal("flush never completed")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := newRig(t, smallProfile())
	payload := content.Random(sim.NewRNG(1), 64)
	if err := r.write(t, 1000, payload); err != nil {
		t.Fatal(err)
	}
	got, err := r.read(t, 1000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(payload) {
		t.Fatal("read differs from written (cache path)")
	}
	// After an explicit flush the data must come back from flash too.
	r.flush(t)
	if r.dev.DirtyCachePages() != 0 {
		t.Fatalf("dirty=%d after flush", r.dev.DirtyCachePages())
	}
	got, err = r.read(t, 1000, 64)
	if err != nil || !got.Equal(payload) {
		t.Fatal("read differs from written (flash path)")
	}
}

func TestUnmappedReadsZero(t *testing.T) {
	r := newRig(t, smallProfile())
	got, err := r.read(t, 5000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(content.Zeroes(8)) {
		t.Fatal("unwritten range not zero")
	}
}

func TestWriteThroughWhenCacheDisabled(t *testing.T) {
	r := newRig(t, smallProfile().WithCacheDisabled())
	payload := content.Random(sim.NewRNG(2), 16)
	if err := r.write(t, 10, payload); err != nil {
		t.Fatal(err)
	}
	// ACK means durable: the chip already holds every page.
	if r.dev.Stats().PagesProgrammed != 16 {
		t.Fatalf("programmed=%d at ACK", r.dev.Stats().PagesProgrammed)
	}
	got, err := r.read(t, 10, 16)
	if err != nil || !got.Equal(payload) {
		t.Fatal("write-through round trip failed")
	}
}

func TestBackgroundFlusherDrains(t *testing.T) {
	r := newRig(t, smallProfile())
	r.write(t, 0, content.Random(sim.NewRNG(3), 256))
	if r.dev.DirtyCachePages() == 0 {
		t.Fatal("no dirty pages after a cached write")
	}
	r.k.RunFor(2 * sim.Second) // well past FlushIdleAge
	if r.dev.DirtyCachePages() != 0 {
		t.Fatalf("dirty=%d after idle period", r.dev.DirtyCachePages())
	}
}

func TestPowerCycleCleanRecovery(t *testing.T) {
	r := newRig(t, smallProfile())
	payload := content.Random(sim.NewRNG(4), 32)
	r.write(t, 100, payload)
	r.flush(t)
	r.k.RunFor(200 * sim.Millisecond) // let the journal commit

	r.psu.PowerOff()
	r.k.RunFor(2 * sim.Second)
	if r.dev.State() != StateDead {
		t.Fatalf("state = %v after discharge", r.dev.State())
	}
	r.psu.PowerOn()
	r.k.RunFor(500 * sim.Millisecond)
	if r.dev.State() != StateReady {
		t.Fatalf("state = %v after restore", r.dev.State())
	}
	got, err := r.read(t, 100, 32)
	if err != nil || !got.Equal(payload) {
		t.Fatal("durable data lost across a clean power cycle")
	}
}

func TestUnavailableFailsFast(t *testing.T) {
	r := newRig(t, smallProfile())
	r.psu.PowerOff()
	r.k.RunFor(60 * sim.Millisecond) // past brownout
	var gotErr error
	done := false
	r.dev.Submit(blockdev.OpRead, 0, 1, content.Data{}, func(err error, _ content.Data) {
		gotErr = err
		done = true
	})
	r.k.RunFor(10 * sim.Millisecond)
	if !done || gotErr != ErrUnavailable {
		t.Fatalf("submit while down: done=%v err=%v", done, gotErr)
	}
}

// TestOutstandingFailOnBrownout submits a write just above the brownout
// voltage: its link transfer outlives the link drop, so the host never
// sees it complete. The write must fail with the down-device error, and
// nothing of it may reach the DRAM cache after the controller died.
func TestOutstandingFailOnBrownout(t *testing.T) {
	for _, cache := range []bool{true, false} {
		t.Run(fmt.Sprintf("cache=%v", cache), func(t *testing.T) {
			p := smallProfile()
			p.HasCache = cache
			r := newRig(t, p)
			var gotErr error
			done := false
			var stateAtAnswer State
			payload := content.Random(sim.NewRNG(5), 256)
			r.psu.NotifyBelow(p.BrownoutVolts+0.003, func() {
				r.dev.Submit(blockdev.OpWrite, 0, 256, payload, func(err error, _ content.Data) {
					gotErr, done, stateAtAnswer = err, true, r.dev.State()
				})
			})
			r.psu.PowerOff()
			r.k.RunFor(2 * sim.Second)
			if !done {
				t.Fatal("outstanding command never resolved")
			}
			if gotErr != ErrUnavailable {
				t.Fatalf("write outstanding at the link drop answered %v in state %v, want ErrUnavailable", gotErr, stateAtAnswer)
			}
			r.psu.PowerOn()
			r.k.RunWhile(func() bool { return r.dev.State() != StateReady })
			if n := r.dev.DirtyCachePages(); n != 0 {
				t.Fatalf("%d pages dirty in the cache after a die and a recovery", n)
			}
		})
	}
}

// TestBrownoutDuringRecoveryRestartsIt dips the rail below the brownout
// voltage, but not below the die voltage, while the controller recovers
// from a cut. The dip aborts the recovery, as a cut during an HDD's
// spin-up does: the next power-good restarts it in full, and only its
// end brings the drive back, journal tick running.
func TestBrownoutDuringRecoveryRestartsIt(t *testing.T) {
	p := smallProfile()
	r := newRig(t, p)
	dip := false
	r.psu.NotifyBelow(p.BrownoutVolts-0.005, func() {
		if dip {
			dip = false
			r.psu.PowerOn()
		}
	})
	r.psu.PowerOff()
	r.k.RunFor(2 * sim.Second)
	r.psu.PowerOn()
	r.k.RunWhile(func() bool { return r.dev.State() != StateRecovering })
	dip = true
	r.psu.PowerOff()
	r.k.RunWhile(func() bool { return dip })
	if r.dev.State() == StateReady {
		t.Fatal("a dip during recovery brought the drive back at once")
	}
	r.k.RunWhile(func() bool { return r.dev.State() != StateReady })
	st := r.dev.Stats()
	if st.Recoveries != 2 || st.Deaths != 1 || !r.dev.journalTimer.Pending() {
		t.Fatalf("after the dip: %d recoveries, %d deaths, journal tick pending %v; want 2, 1, true",
			st.Recoveries, st.Deaths, r.dev.journalTimer.Pending())
	}
}

// TestDirtyCacheLostOnPowerFail is the FWA mechanism end to end at device
// level: ACKed data vanishes, the address reads back old content.
func TestDirtyCacheLostOnPowerFail(t *testing.T) {
	r := newRig(t, smallProfile())
	old := content.Random(sim.NewRNG(6), 8)
	r.write(t, 500, old)
	r.flush(t)
	r.k.RunFor(500 * sim.Millisecond) // commit mapping

	fresh := content.Random(sim.NewRNG(7), 8)
	if err := r.write(t, 500, fresh); err != nil {
		t.Fatal(err)
	}
	// ACK received; cut immediately, before any flush tick.
	r.psu.PowerOff()
	r.k.RunFor(2 * sim.Second)
	r.psu.PowerOn()
	r.k.RunFor(500 * sim.Millisecond)

	got, err := r.read(t, 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got.Equal(fresh) {
		t.Fatal("acknowledged write survived; expected cache loss")
	}
	if !got.Equal(old) {
		t.Fatal("address holds neither old nor new content")
	}
	if r.dev.Stats().DirtyPagesLost == 0 {
		t.Fatal("no dirty pages recorded lost")
	}
}

// TestSuperCapPreservesDirtyData: with power-loss protection the same
// scenario loses nothing.
func TestSuperCapPreservesDirtyData(t *testing.T) {
	r := newRig(t, smallProfile().WithSuperCap())
	fresh := content.Random(sim.NewRNG(8), 8)
	if err := r.write(t, 500, fresh); err != nil {
		t.Fatal(err)
	}
	r.psu.PowerOff()
	r.k.RunFor(2 * sim.Second)
	r.psu.PowerOn()
	r.k.RunFor(500 * sim.Millisecond)

	got, err := r.read(t, 500, 8)
	if err != nil || !got.Equal(fresh) {
		t.Fatal("supercap drive lost acknowledged data")
	}
	if r.dev.Stats().PanicFlushes != 1 {
		t.Fatalf("panic flushes = %d", r.dev.Stats().PanicFlushes)
	}
}

func TestReadyNotification(t *testing.T) {
	r := newRig(t, smallProfile())
	readyCount := 0
	r.dev.NotifyReady(func() { readyCount++ })
	r.psu.PowerOff()
	r.k.RunFor(2 * sim.Second)
	r.psu.PowerOn()
	r.k.RunFor(500 * sim.Millisecond)
	if readyCount != 1 {
		t.Fatalf("ready fired %d times", readyCount)
	}
}

func TestGCUnderSteadyOverwrites(t *testing.T) {
	r := newRig(t, smallProfile())
	rng := sim.NewRNG(9)
	// Overwrite a small region until the writes exceed the drive's
	// physical pages: every pass leaves the previous copies stale, so the
	// free pool drains below the GC low watermark and collections must
	// reclaim whole blocks of stale pages.
	const region, chunk = 2560, 64
	phys := r.dev.Chip().Geometry().Pages()
	for written := int64(0); written < phys+phys/4; written += region {
		for lpn := 0; lpn < region; lpn += chunk {
			if err := r.write(t, addr.LPN(lpn), content.Random(rng, chunk)); err != nil {
				t.Fatalf("write %d at %d pages written: %v", lpn, written, err)
			}
		}
	}
	last := content.Random(rng, chunk)
	if err := r.write(t, 0, last); err != nil {
		t.Fatal(err)
	}
	r.flush(t)
	if r.dev.FTL().Stats().GCCollections == 0 {
		t.Fatal("steady overwrites beyond the physical capacity never ran GC")
	}
	if got, err := r.read(t, 0, chunk); err != nil || !got.Equal(last) {
		t.Fatalf("read back after GC: err=%v", err)
	}
}

// TestFullDriveFlushReachesGC fills a 1 GB drive and overwrites it. The
// second pass drives the free pool to empty while the cache flusher is
// draining: BeginWrite refuses pages, the unplaced pages must go back
// to the dirty queue, and GC completion must restart the flusher so the
// writes finish.
func TestFullDriveFlushReachesGC(t *testing.T) {
	r := newRig(t, smallProfile())
	rng := sim.NewRNG(11)
	const chunk = 256
	user := r.dev.UserPages()
	var last content.Data
	for pass := 0; pass < 2; pass++ {
		for lpn := int64(0); lpn+chunk <= user; lpn += chunk {
			last = content.Random(rng, chunk)
			if err := r.write(t, addr.LPN(lpn), last); err != nil {
				t.Fatalf("pass %d write at %d: %v", pass, lpn, err)
			}
		}
	}
	r.flush(t)
	if r.dev.DirtyCachePages() != 0 {
		t.Fatalf("dirty=%d after flush", r.dev.DirtyCachePages())
	}
	if r.dev.FTL().Stats().GCCollections == 0 {
		t.Fatal("overwriting a full drive never ran GC")
	}
	tail := addr.LPN((user/chunk - 1) * chunk)
	if got, err := r.read(t, tail, chunk); err != nil || !got.Equal(last) {
		t.Fatalf("read back after GC: err=%v", err)
	}
}

// TestWriteThroughFullDrive fills a 1 GB drive with the cache disabled
// and overwrites it in 8 MiB commands, each larger than the free pool
// once the drive is full, then once in a 16 MiB command, larger than
// the free blocks GC restores before it stops. A command places what
// fits and stalls while GC makes room: every write must succeed, and no
// reserved page may wait unprogrammed behind a stall, or a later
// program in that block would break the chip's sequential programming
// rule. The FTL must stay consistent throughout.
func TestWriteThroughFullDrive(t *testing.T) {
	r := newRig(t, smallProfile().WithCacheDisabled())
	f := r.dev.FTL()
	rng := sim.NewRNG(13)
	const chunk = 2048
	if ppb := r.dev.Chip().Geometry().PagesPerBlock; 2*chunk <= f.Config().GCHighBlocks*ppb {
		t.Fatalf("a %d-page command fits the %d blocks GC restores", 2*chunk, f.Config().GCHighBlocks)
	}
	user := r.dev.UserPages()
	for pass := 0; pass < 2; pass++ {
		for lpn := int64(0); lpn+chunk <= user; lpn += chunk {
			if err := r.write(t, addr.LPN(lpn), content.Random(rng, chunk)); err != nil {
				t.Fatalf("pass %d write at %d: %v", pass, lpn, err)
			}
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("pass %d after write at %d: %v", pass, lpn, err)
			}
		}
	}
	if f.Stats().GCCollections == 0 || r.dev.Stats().CacheStalls == 0 {
		t.Fatalf("overwriting a full drive ran %d collections and stalled %d writes",
			f.Stats().GCCollections, r.dev.Stats().CacheStalls)
	}
	stalls := r.dev.Stats().CacheStalls
	last := content.Random(rng, 2*chunk)
	if err := r.write(t, 0, last); err != nil {
		t.Fatal(err)
	}
	if r.dev.Stats().CacheStalls == stalls {
		t.Fatal("the 16 MiB overwrite never stalled")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, err := r.read(t, 0, 2*chunk); err != nil || !got.Equal(last) {
		t.Fatalf("read back: err=%v", err)
	}
}

// TestCutEndsWriteThroughStall cuts the power while a write-through
// command on a full drive is stalled waiting for GC. The command must
// fail with the down-device error, the crash must leave no reserved page
// unprogrammed, and once the retry has fired the command must be back
// in the pool.
func TestCutEndsWriteThroughStall(t *testing.T) {
	r := newRig(t, smallProfile().WithCacheDisabled())
	const chunk = 4096
	user := r.dev.UserPages()
	var out error
	done := false
	for lpn := int64(0); ; lpn = (lpn + chunk) % (user - user%chunk) {
		if r.dev.FTL().Stats().WritesMapped > 3*user {
			t.Fatal("no write stalled")
		}
		stalls := r.dev.Stats().CacheStalls
		done = false
		r.dev.Submit(blockdev.OpWrite, addr.LPN(lpn), chunk, content.Random(sim.NewRNG(uint64(lpn)), chunk),
			func(err error, _ content.Data) { out, done = err, true })
		r.k.RunWhile(func() bool { return !done && r.dev.Stats().CacheStalls == stalls })
		if !done {
			break
		}
		if out != nil {
			t.Fatalf("write at %d: %v", lpn, out)
		}
	}
	r.psu.PowerOff()
	r.k.RunWhile(func() bool { return !done })
	if !errors.Is(out, ErrUnavailable) {
		t.Fatalf("stalled write answered %v, want ErrUnavailable", out)
	}
	r.k.RunWhile(func() bool { return r.dev.State() != StateDead })
	if err := r.dev.FTL().CheckInvariants(); err != nil {
		t.Fatalf("after the cut: %v", err)
	}
	r.psu.PowerOn()
	r.k.RunWhile(func() bool { return r.dev.State() != StateReady })
	if n := r.dev.freeCmds.InUse(); n != 0 {
		t.Fatalf("stalled command not recycled: %d commands in use", n)
	}
}

func time500() sim.Duration { return 500 * sim.Millisecond }

// versioned writes pages whose content names their logical page and a
// version. newest holds the newest version issued to each page, counted
// when the write is submitted.
type versioned struct {
	r      *rig
	newest []content.Fingerprint
}

// verBits is the width of a versioned page's version field.
const verBits = 24

func newVersioned(r *rig) *versioned {
	return &versioned{r: r, newest: make([]content.Fingerprint, r.dev.UserPages())}
}

// write issues the next version of pages [lpn, lpn+pages), once, and
// fails the test unless the drive answers within limit of simulated
// time.
func (v *versioned) write(t *testing.T, lpn addr.LPN, pages int, limit sim.Duration) error {
	t.Helper()
	fps := make([]content.Fingerprint, pages)
	for i := range fps {
		p := lpn + addr.LPN(i)
		v.newest[p]++
		fps[i] = content.Fingerprint(p)<<verBits | v.newest[p]
	}
	var out error
	done := false
	k := v.r.k
	deadline := k.Now().Add(limit)
	v.r.dev.Submit(blockdev.OpWrite, lpn, pages, content.Wrap(fps), func(err error, _ content.Data) {
		out, done = err, true
	})
	k.RunWhile(func() bool { return !done && k.Now() < deadline })
	if !done {
		f := v.r.dev.FTL()
		t.Fatalf("write at %d unanswered after %v: %d free blocks, %d collections, %d cache stalls",
			lpn, limit, f.FreeBlocks(), f.Stats().GCCollections, v.r.dev.Stats().CacheStalls)
	}
	return out
}

// fill writes the first pages of the drive in chunks, flushes, and waits
// for the journal to commit, so no later crash reverts a page to unmapped.
func (v *versioned) fill(t *testing.T, pages int64, chunk int) {
	t.Helper()
	for lpn := int64(0); lpn < pages; lpn += int64(chunk) {
		if err := v.write(t, addr.LPN(lpn), chunk, sim.Second); err != nil {
			t.Fatalf("fill at %d: %v", lpn, err)
		}
	}
	v.r.flush(t)
	v.r.k.RunFor(v.r.dev.Profile().JournalTick + sim.Millisecond)
}

// check reads pages [0, pages) from the chip through the FTL's mapping,
// after the caller flushed the cache. Each must name its own logical
// page with a version from 1 up to the newest issued, the newest itself
// if exact: a mapping into an erased or reused block fails. A page whose
// content names no page of the drive is skipped and counted: a cut
// damaged it past what ECC corrects (GC may have migrated it since),
// which is a modelled loss, not a mapping fault.
func (v *versioned) check(t *testing.T, pages int64, exact bool) (damaged int) {
	t.Helper()
	f, chip := v.r.dev.FTL(), v.r.dev.Chip()
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for lpn := addr.LPN(0); int64(lpn) < pages; lpn++ {
		var fp content.Fingerprint
		if ppn, ok := f.Lookup(lpn); ok {
			res, err := chip.Read(ppn)
			if err != nil {
				t.Fatal(err)
			}
			fp = res.FP
		}
		if int64(fp>>verBits) >= int64(len(v.newest)) {
			damaged++
			continue
		}
		ver, newest := fp&(1<<verBits-1), v.newest[lpn]
		if addr.LPN(fp>>verBits) != lpn || ver == 0 || ver > newest || exact && ver != newest {
			t.Fatalf("lpn %d reads %#x; versions 1..%d were issued", lpn, fp, newest)
		}
	}
	return damaged
}

// overwriteChunk is the size and alignment of the full-drive overwrites.
const overwriteChunk = 64

// TestRandomOverwritesFullDrive fills a 1 GB drive and overwrites random
// 64-page chunks of it, with the cache on and off, so every victim GC
// picks holds valid pages. GC must keep up: without a reserve only
// collections may spend, the cache flusher takes every free block
// before a collection places its moves, and the drive stops answering
// writes. A full drive slows writes down and fails none of them.
func TestRandomOverwritesFullDrive(t *testing.T) {
	for _, cache := range []bool{true, false} {
		t.Run(fmt.Sprintf("cache=%v", cache), func(t *testing.T) {
			p := smallProfile()
			if !cache {
				p = p.WithCacheDisabled()
			}
			v := newVersioned(newRig(t, p))
			user := v.r.dev.UserPages()
			v.fill(t, user, 1024)
			rng := sim.NewRNG(11)
			for i := range 3000 {
				lpn := addr.LPN(rng.Intn(int(user/overwriteChunk)) * overwriteChunk)
				if err := v.write(t, lpn, overwriteChunk, 20*sim.Second); err != nil {
					t.Fatalf("overwrite %d at %d: %v", i, lpn, err)
				}
				if i%250 == 249 {
					if err := v.r.dev.FTL().CheckInvariants(); err != nil {
						t.Fatalf("after overwrite %d: %v", i, err)
					}
				}
			}
			v.r.flush(t)
			if n := v.check(t, user, true); n != 0 {
				t.Fatalf("%d pages damaged with no cut", n)
			}
			if n := v.r.dev.FTL().Stats().GCCollections; n < 1000 {
				t.Fatalf("%d collections; random overwrites of a full drive should run many", n)
			}
			if n := v.r.dev.Stats().HostErrors; n != 0 {
				t.Fatalf("%d commands failed on a drive that only filled up", n)
			}
		})
	}
}

// TestCutsDuringFullDriveGC overwrites a full drive as
// TestRandomOverwritesFullDrive does, with the cache on and off, and cuts
// the power 0-3 ms after every 37th write, while the flusher and GC run.
// Every write, submitted once, must succeed, the FTL must stay
// consistent, and every page must read back a version issued to it.
func TestCutsDuringFullDriveGC(t *testing.T) {
	for _, cache := range []bool{true, false} {
		for _, seed := range []uint64{1, 2} {
			t.Run(fmt.Sprintf("cache=%v/seed=%d", cache, seed), func(t *testing.T) {
				p := smallProfile()
				if !cache {
					p = p.WithCacheDisabled()
				}
				r := newRig(t, p)
				v := newVersioned(r)
				user := r.dev.UserPages()
				v.fill(t, user, 1024)
				rng := sim.NewRNG(seed)
				cuts, midGC := 0, 0
				for i := range 3000 {
					lpn := addr.LPN(rng.Intn(int(user/overwriteChunk)) * overwriteChunk)
					if err := v.write(t, lpn, overwriteChunk, 20*sim.Second); err != nil {
						t.Fatalf("overwrite %d at %d: %v", i, lpn, err)
					}
					if i%37 == 36 {
						r.k.RunFor(sim.Duration(rng.Intn(3000)) * sim.Microsecond)
						if r.dev.gcPlan != nil {
							midGC++
						}
						cuts++
						r.psu.PowerOff()
						r.k.RunWhile(func() bool { return r.dev.State() != StateDead })
						// The crash leaves no reservation in flight.
						if err := r.dev.FTL().CheckInvariants(); err != nil {
							t.Fatalf("after the cut following overwrite %d: %v", i, err)
						}
						r.psu.PowerOn()
						r.k.RunWhile(func() bool { return r.dev.State() != StateReady })
					}
					if i%250 == 249 {
						if err := r.dev.FTL().CheckInvariants(); err != nil {
							t.Fatalf("after overwrite %d: %v", i, err)
						}
					}
				}
				r.flush(t)
				damaged := v.check(t, user, false)
				t.Logf("%d cuts, %d mid-collection, %d collections, %d pages damaged",
					cuts, midGC, r.dev.FTL().Stats().GCCollections, damaged)
				if midGC == 0 {
					t.Fatal("no cut landed mid-collection")
				}
			})
		}
	}
}

// TestGCKeepsUncorrectablePagesUncorrectable collects a block whose
// valid pages ECC cannot correct and reads them back through the host.
// An interrupted erase leaves a full block unreliable; the host then
// overwrites all but four of its pages, so it is the fewest-valid victim
// of the first collection, which reads the four uncorrectable. The moves
// must not program what those reads returned as good data: with
// UncorrectableAsError the host must get ErrUncorrectable for each of
// them, not a clean read of wrong content.
func TestGCKeepsUncorrectablePagesUncorrectable(t *testing.T) {
	p := smallProfile()
	p.UncorrectableAsError = true
	r := newRig(t, p)
	v := newVersioned(r)
	f, chip := r.dev.FTL(), r.dev.Chip()
	user := r.dev.UserPages()
	v.fill(t, user, 1024)
	home, ok := f.Lookup(0)
	if !ok {
		t.Fatal("lpn 0 unmapped after the fill")
	}
	blk := chip.Geometry().BlockOf(home)
	var resident []addr.LPN
	for lpn := addr.LPN(0); int64(lpn) < user; lpn++ {
		if ppn, ok := f.Lookup(lpn); ok && chip.Geometry().BlockOf(ppn) == blk {
			resident = append(resident, lpn)
		}
	}
	if len(resident) != chip.Geometry().PagesPerBlock {
		t.Fatalf("block %d holds %d mapped pages, want it full", blk, len(resident))
	}
	if err := chip.ErasePartial(blk, 0.5); err != nil {
		t.Fatal(err)
	}
	kept := resident[:4]
	for _, lpn := range resident[4:] {
		if err := v.write(t, lpn, 1, sim.Second); err != nil {
			t.Fatalf("overwrite of lpn %d: %v", lpn, err)
		}
	}
	rng := sim.NewRNG(1)
	for chip.EraseCount(blk) == 0 {
		if f.Stats().GCCollections > 8 {
			t.Fatalf("%d collections ran and none took block %d", f.Stats().GCCollections, blk)
		}
		lpn := addr.LPN(rng.Intn(int(user/overwriteChunk)) * overwriteChunk)
		if err := v.write(t, lpn, overwriteChunk, 20*sim.Second); err != nil {
			t.Fatalf("overwrite at %d: %v", lpn, err)
		}
	}
	r.flush(t)
	for _, lpn := range kept {
		ppn, _ := f.Lookup(lpn)
		if chip.Geometry().BlockOf(ppn) == blk {
			t.Fatalf("lpn %d still maps into the collected block %d", lpn, blk)
		}
		data, err := r.read(t, lpn, 1)
		if !errors.Is(err, ErrUncorrectable) {
			t.Fatalf("lpn %d moved by GC reads %#x with error %v, want ErrUncorrectable", lpn, data.Page(0), err)
		}
	}
}

// TestCutAfterGCErase cuts the power the moment a collection has erased a
// victim it migrated pages out of, with the host idle. When the last move
// completed, its record pinned the victim: the controller must commit it
// before the erase, or the crash reverts the moved page into the erased
// block, and once the block is reused two logical pages share one
// physical page. After recovery the test writes on until the victim is
// handed out again; then the FTL must be consistent and every page must
// read back a value the drive acknowledged for it.
func TestCutAfterGCErase(t *testing.T) {
	k := sim.New()
	pcfg := power.DefaultConfig()
	pcfg.Capacitance /= 1000 // the controller dies some 40 µs after the cut
	psu, err := power.New(k, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	// A slow journal tick leaves the collection's own ordering as the one
	// thing that commits its move records before the erase, and a one-page
	// OOB scan rebuilds hardly any of them after the crash.
	prof := smallProfile()
	prof.JournalTick = sim.Second
	prof.ScanWindowPages = 1
	dev, err := New(k, sim.NewRNG(7), prof, psu)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{k: k, psu: psu, dev: dev}
	f := dev.FTL()
	// Half the drive is live, so collections migrate pages but never
	// starve for free blocks.
	v := newVersioned(r)
	hot := dev.UserPages() / 2
	rng := sim.NewRNG(19)
	overwrite := func() {
		lpn := addr.LPN(rng.Intn(int(hot/overwriteChunk)) * overwriteChunk)
		if err := v.write(t, lpn, overwriteChunk, sim.Second); err != nil {
			t.Fatalf("write at %d: %v", lpn, err)
		}
	}
	v.fill(t, hot, overwriteChunk)
	// Overwrite at random until a collection migrates pages, flush so the
	// host goes idle, and run to the erase of a victim with moves.
	victim := -1
	for victim < 0 {
		for f.Stats().GCCollections == 0 || dev.gcPlan == nil {
			overwrite()
		}
		r.flush(t)
		for victim < 0 && dev.gcPlan != nil {
			collections, moves := f.Stats().GCCollections, 0
			k.RunWhile(func() bool {
				if f.Stats().GCCollections != collections || dev.gcPlan == nil {
					return false
				}
				victim, moves = dev.gcPlan.Victim, len(dev.gcPlan.Moves)
				return true
			})
			if f.Stats().GCCollections == collections || moves == 0 {
				victim = -1
			}
		}
	}
	commits := f.Stats().Commits
	psu.PowerOff()
	k.RunWhile(func() bool { return dev.State() != StateDead })
	if f.Stats().Commits != commits {
		t.Fatal("a journal commit landed between the erase and the cut")
	}
	psu.PowerOn()
	k.RunWhile(func() bool { return dev.State() != StateReady })
	for dev.Chip().NextPage(victim) == 0 {
		overwrite()
	}
	r.flush(t)
	if n := v.check(t, hot, false); n != 0 {
		t.Fatalf("%d pages damaged", n)
	}
}

func TestProfilesTableI(t *testing.T) {
	profs := Profiles()
	if len(profs) != 3 {
		t.Fatalf("profiles = %d, want 3 (Table I)", len(profs))
	}
	wantCells := []flash.CellKind{flash.MLC, flash.TLC, flash.MLC}
	wantSizes := []int{256, 120, 120}
	for i, p := range profs {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
		if p.Cell != wantCells[i] || p.CapacityGB != wantSizes[i] {
			t.Errorf("profile %s = %v/%dGB", p.Name, p.Cell, p.CapacityGB)
		}
		if !p.HasCache {
			t.Errorf("profile %s should have an internal cache", p.Name)
		}
		if p.String() == "" {
			t.Error("empty profile string")
		}
	}
	if ProfileB().ECC.Scheme != "LDPC" {
		t.Error("SSD B should use LDPC (Table I)")
	}
	if _, ok := ProfileByName("B"); !ok {
		t.Error("ProfileByName failed")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Error("unknown profile found")
	}
}

func TestProfileDerivations(t *testing.T) {
	p := ProfileA()
	if p.UserPages() != int64(256)<<30>>12 {
		t.Fatal("UserPages wrong")
	}
	if p.Geometry().CapacityBytes() < int64(256)<<30 {
		t.Fatal("geometry smaller than capacity")
	}
	if p.CachePages() != 32<<20>>12 {
		t.Fatal("CachePages wrong")
	}
	if p.WithCacheDisabled().CachePages() != 0 {
		t.Fatal("cache-disabled pages wrong")
	}
	nc := p.WithCacheDisabled()
	if nc.HasCache || nc.Name == p.Name {
		t.Fatal("WithCacheDisabled wrong")
	}
	sc := p.WithSuperCap()
	if !sc.SuperCap || sc.Name == p.Name {
		t.Fatal("WithSuperCap wrong")
	}
}

func TestProfileValidation(t *testing.T) {
	p := ProfileA()
	p.Name = ""
	if p.Validate() == nil {
		t.Fatal("nameless profile accepted")
	}
	p = ProfileA()
	p.DieVolts = 4.9
	if p.Validate() == nil {
		t.Fatal("die above brownout accepted")
	}
	p = ProfileA()
	p.CapacityGB = 0
	if p.Validate() == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestUncorrectableAsErrorMode(t *testing.T) {
	p := smallProfile()
	p.BaseBER = 0.05 // every flash read uncorrectable
	p.UncorrectableAsError = true
	r := newRig(t, p)
	payload := content.Random(sim.NewRNG(10), 4)
	r.write(t, 0, payload)
	r.flush(t)
	// Drop the cache copy so the read must hit flash.
	r.psu.PowerOff()
	r.k.RunFor(2 * sim.Second)
	r.psu.PowerOn()
	r.k.RunFor(500 * sim.Millisecond)
	_, err := r.read(t, 0, 4)
	if err != ErrUncorrectable {
		t.Fatalf("err = %v, want ErrUncorrectable", err)
	}
}

func TestStateStrings(t *testing.T) {
	for _, s := range []State{StateReady, StateUnavailable, StateDead, StateRecovering} {
		if s.String() == "" {
			t.Fatal("state string empty")
		}
	}
}

// cutWorkload submits random reads, writes and flushes while it cuts and
// restores the power at random, so commands are in flight at every
// brownout and submissions continue while the rail decays; then it
// restores the power and lets the device settle. check runs before
// every event. It returns how many commands it submitted; command id's
// answer goes to done(id).
func cutWorkload(r *rig, check func(), done func(id int) func(error, content.Data)) int {
	rng := sim.NewRNG(11)
	run := func(d sim.Duration) {
		stop := false
		r.k.After(d, func() { stop = true })
		r.k.RunWhile(func() bool { check(); return !stop })
	}
	const steps = 3000
	on := true
	for id := 0; id < steps; id++ {
		if on && rng.Intn(100) < 2 {
			r.psu.PowerOff()
			on = false
		} else if !on && rng.Intn(100) < 4 {
			r.psu.PowerOn()
			on = true
		}
		switch k := rng.Intn(100); {
		case k < 50:
			pages := 1 + rng.Intn(256)
			r.dev.Submit(blockdev.OpWrite, addr.LPN(rng.Intn(4096)), pages, content.Random(rng, pages), done(id))
		case k < 90:
			r.dev.Submit(blockdev.OpRead, addr.LPN(rng.Intn(4096)), 1+rng.Intn(256), content.Data{}, done(id))
		default:
			r.dev.Submit(blockdev.OpFlush, 0, 0, content.Data{}, done(id))
		}
		run(sim.Duration(rng.Intn(3000)) * sim.Microsecond)
	}
	r.psu.PowerOn()
	run(10 * sim.Second)
	return steps
}

// cutProfiles are the drive builds the cut workload runs on.
var cutProfiles = []struct {
	name string
	mut  func(*Profile)
}{
	{"write-back", func(*Profile) {}},
	{"write-through", func(p *Profile) { p.HasCache = false }},
	{"supercap", func(p *Profile) { p.SuperCap = true }},
}

// TestPooledCommandsUnderPowerCuts drives reads, writes and flushes
// through repeated power cuts, so commands lose their completions at
// the link drop while their steps and channel items are still pending.
// Every command must complete exactly once, none may answer success
// after a link drop that came after its submission, and once the device
// settles every pooled command and item must be back in its pool
// exactly once.
func TestPooledCommandsUnderPowerCuts(t *testing.T) {
	for _, tc := range cutProfiles {
		t.Run(tc.name, func(t *testing.T) {
			p := smallProfile()
			tc.mut(&p)
			r := newRig(t, p)
			calls := map[int]int{}
			downs := 0
			r.dev.NotifyDown(func() { downs++ })
			lateACKs := 0
			submitted := cutWorkload(r, func() {}, func(id int) func(error, content.Data) {
				downsAtSubmit := downs
				return func(err error, _ content.Data) {
					calls[id]++
					if err == nil && downs > downsAtSubmit {
						lateACKs++
					}
				}
			})
			if len(calls) != submitted {
				t.Fatalf("%d of %d commands completed", len(calls), submitted)
			}
			for id, n := range calls {
				if n != 1 {
					t.Fatalf("command %d completed %d times", id, n)
				}
			}
			if lateACKs != 0 {
				t.Fatalf("%d commands answered success across a link drop", lateACKs)
			}
			d := r.dev
			if len(d.outstanding) != 0 || d.Stats().Deaths == 0 {
				t.Fatalf("outstanding %d, deaths %d", len(d.outstanding), d.Stats().Deaths)
			}
			// Every record is back in its pool, once and reset: drain each
			// pool until it builds a fresh record.
			if n := d.freeCmds.InUse(); n != 0 {
				t.Fatalf("%d commands never returned to the pool", n)
			}
			if n := d.freeItems.InUse(); n != 0 {
				t.Fatalf("%d channel items never returned to the pool", n)
			}
			seen := map[*command]bool{}
			for c, fresh := d.freeCmds.Get(); !fresh; c, fresh = d.freeCmds.Get() {
				if seen[c] || c.pins != 0 || c.finished {
					t.Fatalf("pooled command %p: duplicate %v, pins %d, finished %v", c, seen[c], c.pins, c.finished)
				}
				seen[c] = true
			}
			seenItem := map[*chItem]bool{}
			for it, fresh := d.freeItems.Get(); !fresh; it, fresh = d.freeItems.Get() {
				if seenItem[it] || it.cmd != nil || len(it.ops) != 0 {
					t.Fatalf("pooled item %p: duplicate %v, cmd %p, %d ops", it, seenItem[it], it.cmd, len(it.ops))
				}
				seenItem[it] = true
			}
		})
	}
}

// TestHaltedControllerRunsNothing runs the cut workload and checks,
// before every event, that a dead or recovering controller does no
// work: no channel runs or holds queued items, no flush or journal tick
// is pending, and no journal commit or collection is in flight. A link
// drop leaves no live command to place work after the die, so nothing
// needs guarding against the controller's state.
func TestHaltedControllerRunsNothing(t *testing.T) {
	for _, tc := range cutProfiles {
		t.Run(tc.name, func(t *testing.T) {
			p := smallProfile()
			tc.mut(&p)
			r := newRig(t, p)
			d := r.dev
			halted, violation := 0, ""
			check := func() {
				if violation != "" || (d.state != StateDead && d.state != StateRecovering) {
					return
				}
				halted++
				for i, c := range d.channels {
					if c.cur != nil || c.timer.Pending() || c.head != len(c.queue) {
						violation = fmt.Sprintf("channel %d busy (%d queued)", i, len(c.queue)-c.head)
					}
				}
				switch {
				case d.flushTimer.Pending():
					violation = "flush tick pending"
				case d.journalTimer.Pending():
					violation = "journal tick pending"
				case d.metaInFlight || d.gcPlan != nil:
					violation = "journal commit or collection in flight"
				}
				if violation != "" {
					violation = fmt.Sprintf("%v controller at %v: %s", d.state, r.k.Now(), violation)
				}
			}
			cutWorkload(r, check, func(int) func(error, content.Data) { return func(error, content.Data) {} })
			if violation != "" {
				t.Fatal(violation)
			}
			if halted == 0 {
				t.Fatal("no event ran while the controller was down")
			}
		})
	}
}
