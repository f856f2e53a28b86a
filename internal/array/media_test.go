package array

import (
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/sim"
	"powerfail/internal/ssd"
)

// TestCutLeavesMembersDisagreeingOnMedia: one cut of the shared supply,
// with 8 disjoint 4-page writes in flight, leaves rows on which the
// members' media disagree: parity that no longer encodes its row's data,
// or mirror copies that differ. Every member acknowledges or fails alike
// on a correlated cut, and a volatile cache acknowledges before its media
// hold the data, so the array's ACK-level write-hole count reads 0 while
// the media disagree. The same loop with no cut leaves every row
// consistent.
func TestCutLeavesMembersDisagreeingOnMedia(t *testing.T) {
	q := ssd.ProfileQ()
	q.CapacityGB = 1
	q = q.Normalize()
	for _, cfg := range []Config{
		raidConfig(RAID5, 4),
		raidConfig(RAID6, 5),
		{Level: RAID1, Members: []ssd.Profile{smallSSD(), q}},
	} {
		cut := 0
		for seed := uint64(1); seed <= 6; seed++ {
			if n := disagreeingRows(t, cfg, seed, false); n != 0 {
				t.Errorf("%v seed %d: %d rows disagree with no cut, want 0", cfg.Level, seed, n)
			}
			n := disagreeingRows(t, cfg, seed, true)
			t.Logf("%v seed %d: %d of %d rows disagree after one cut", cfg.Level, seed, n, mediaRows)
			cut += n
		}
		if cut == 0 {
			t.Errorf("%v: no row disagrees after a cut on any seed", cfg.Level)
		}
	}
}

// mediaRows is the member rows the media test fills and checks: 64
// stripes of 16-page chunks (RAID-1: 1024 pages).
const mediaRows = 64 * 16

// disagreeingRows fills mediaRows member rows, keeps 8 disjoint 4-page
// writes in flight for 50–250 ms, then either cuts the supply and
// restores it or lets the writes finish, and counts the rows whose
// members disagree on media.
func disagreeingRows(t *testing.T, cfg Config, seed uint64, cut bool) int {
	t.Helper()
	r := newRigT(cfg, seed)
	a := r.arr
	hostPages := mediaRows * (len(a.members) - a.parityCount())
	if cfg.Level == RAID1 {
		hostPages = mediaRows
	}
	rng := sim.NewRNG(seed)
	for lpn := 0; lpn < hostPages; lpn += 64 {
		if err := r.write(t, addr.LPN(lpn), content.Random(rng, 64)); err != nil {
			t.Fatalf("%s seed %d: fill: %v", a.Name(), seed, err)
		}
	}

	// Slots are aligned 4-page runs; a busy slot is never written again
	// until its write answers, so the writes in flight are disjoint.
	busy := make([]bool, hostPages/4)
	inFlight, stopped := 0, false
	var issue func()
	issue = func() {
		s := rng.Intn(len(busy))
		for busy[s] {
			s = (s + 1) % len(busy)
		}
		busy[s] = true
		inFlight++
		a.Submit(blockdev.OpWrite, addr.LPN(4*s), 4, content.Random(rng, 4), func(err error, _ content.Data) {
			if err != nil && !cut {
				t.Errorf("%s seed %d: write with no cut: %v", a.Name(), seed, err)
			}
			busy[s] = false
			inFlight--
			if !stopped {
				issue()
			}
		})
	}
	for i := 0; i < 8; i++ {
		issue()
	}
	r.k.RunFor(rng.DurationRange(50*sim.Millisecond, 250*sim.Millisecond))
	stopped = true
	if cut {
		r.fault(t)
	}
	r.k.RunWhile(func() bool { return inFlight > 0 })
	if inFlight > 0 {
		t.Fatalf("%s seed %d: %d writes never answered", a.Name(), seed, inFlight)
	}
	recordsFree(t, a)

	media := make([]content.Data, len(a.members))
	for m := range a.members {
		media[m] = readMember(t, r, m, 0, mediaRows)
	}
	n := len(a.members)
	shards := make([]content.Fingerprint, n)
	present := make([]bool, n)
	bad := 0
	for row := 0; row < mediaRows; row++ {
		if a.code == nil { // RAID-1: compare the copies
			if media[0].Page(row) != media[1].Page(row) {
				bad++
			}
			continue
		}
		// Re-encode the data shards and compare with the stored parity.
		p0 := int(int64(row) / int64(a.cfg.StripePages) % int64(n))
		for m := 0; m < n; m++ {
			slot := a.slotOf(p0, m)
			shards[slot], present[slot] = media[m].Page(row), !a.isParityMember(p0, m)
		}
		if err := a.code.Reconstruct(shards, present); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < a.parityCount(); j++ {
			if shards[n-a.parityCount()+j] != media[a.parityMember(p0, j)].Page(row) {
				bad++
				break
			}
		}
	}
	if ws := a.Stats().WriteHoles; ws != 0 {
		t.Errorf("%s seed %d: WriteHoles = %d, want 0: a correlated cut fails every member alike", a.Name(), seed, ws)
	}
	return bad
}
