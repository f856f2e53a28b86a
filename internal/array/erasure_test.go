package array

import (
	"errors"
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/sim"
	"powerfail/internal/ssd"
)

func rsConfig(n, parity int) Config {
	members := make([]ssd.Profile, n)
	for i := range members {
		members[i] = smallSSD()
	}
	return Config{Level: RS, Members: members, Parity: parity}
}

func TestCodedGeometry(t *testing.T) {
	r := newRig(t, raidConfig(RAID6, 5))
	member := r.arr.Drive(0).UserPages()
	sp := int64(r.arr.Config().StripePages)
	if got := r.arr.UserPages(); got != 3*(member/sp)*sp {
		t.Fatalf("raid6x5 capacity %d, want %d", got, 3*(member/sp)*sp)
	}
	if c := r.arr.code; c.M() != 3 || c.K() != 2 {
		t.Fatalf("raid6x5 code %d+%d, want 3+2", c.M(), c.K())
	}

	r = newRig(t, rsConfig(6, 3))
	member = r.arr.Drive(0).UserPages()
	if got := r.arr.UserPages(); got != 3*(member/sp)*sp {
		t.Fatalf("rs3+3 capacity %d, want %d", got, 3*(member/sp)*sp)
	}

	// Every stripe keeps its k parity members distinct from its data
	// members, and the parity run rotates across all members.
	seenParity := map[int]bool{}
	for s := int64(0); s < 6; s++ {
		first := addr.LPN(s * 3 * sp) // 3 data chunks per stripe
		crs := r.arr.chunksOf(first, int(3*sp))
		for _, cr := range crs {
			seenParity[cr.parity] = true
			if r.arr.isParityMember(cr.parity, cr.member) {
				t.Fatalf("stripe %d: data chunk on a parity member: %+v", s, cr)
			}
			if cr.stripe != s {
				t.Fatalf("stripe id %d, want %d", cr.stripe, s)
			}
		}
	}
	if len(seenParity) != 6 {
		t.Fatalf("parity run rotated over %d members, want 6", len(seenParity))
	}
}

func TestCodedRoundTripAndParity(t *testing.T) {
	for _, cfg := range []Config{raidConfig(RAID5, 3), raidConfig(RAID6, 4), rsConfig(6, 3)} {
		r := newRig(t, cfg)
		sp := r.arr.Config().StripePages
		kp := r.arr.parityCount()
		payload := content.Random(sim.NewRNG(5), 2*sp)
		if err := r.write(t, 0, payload); err != nil {
			t.Fatalf("%v: %v", cfg.Level, err)
		}
		got, err := r.read(t, 0, 2*sp)
		if err != nil || !got.Equal(payload) {
			t.Fatalf("%v round trip: err=%v equal=%v", cfg.Level, err, got.Equal(payload))
		}
		if r.arr.Stats().ParityRMWs == 0 {
			t.Fatalf("%v: no parity RMW cycles recorded", cfg.Level)
		}

		// Re-encoding the data shards of every touched row must give the
		// shards stored on the parity members.
		n := len(cfg.Members)
		for _, cr := range r.arr.chunksOf(0, 2*sp) {
			rows := make([]content.Data, n)
			for m := 0; m < n; m++ {
				rows[m] = readMember(t, r, m, cr.mlpn, cr.n)
			}
			for i := 0; i < cr.n; i++ {
				data := make([]content.Fingerprint, n-kp)
				for m := 0; m < n; m++ {
					if slot := r.arr.slotOf(cr.parity, m); slot < n-kp {
						data[slot] = rows[m].Page(i)
					}
				}
				parity := r.arr.code.Encode(data)
				for j := 0; j < kp; j++ {
					pm := r.arr.parityMember(cr.parity, j)
					if rows[pm].Page(i) != parity[j] {
						t.Fatalf("%v: parity %d inconsistent at chunk %+v page %d", cfg.Level, j, cr, i)
					}
				}
			}
		}
	}
}

// TestCodedReconstructEveryChunk drives the degraded-read path directly:
// for every chunk of a written range, reconstruction from the other
// members must reproduce the direct read, whichever member is missing.
func TestCodedReconstructEveryChunk(t *testing.T) {
	for _, cfg := range []Config{raidConfig(RAID5, 4), rsConfig(6, 3)} {
		r := newRig(t, cfg)
		sp := r.arr.Config().StripePages
		payload := content.Random(sim.NewRNG(6), 3*sp)
		if err := r.write(t, 0, payload); err != nil {
			t.Fatalf("%v: %v", cfg.Level, err)
		}
		before := r.arr.Stats().Reconstructions
		for _, cr := range r.arr.chunksOf(0, 3*sp) {
			direct := readMember(t, r, cr.member, cr.mlpn, cr.n)
			result := make([]content.Fingerprint, cr.off+cr.n)
			done := false
			var rerr error
			r.arr.codeReconstruct(cr, result, func(err error) { rerr = err; done = true })
			r.k.RunWhile(func() bool { return !done })
			if rerr != nil {
				t.Fatalf("%v: reconstruct chunk %+v: %v", cfg.Level, cr, rerr)
			}
			for i := 0; i < cr.n; i++ {
				if result[cr.off+i] != direct.Page(i) {
					t.Fatalf("%v: chunk %+v page %d: reconstructed %x, direct %x", cfg.Level, cr, i, result[cr.off+i], direct.Page(i))
				}
			}
		}
		if got := r.arr.Stats().Reconstructions - before; got == 0 {
			t.Fatalf("%v: no reconstructions recorded", cfg.Level)
		}
	}
}

// errMedia is the read error a failDrive answers with.
var errMedia = errors.New("member media unreadable")

// failDrive passes a member's IO through, except that while fail is set
// every read answers errMedia, as a member that cannot return the row.
type failDrive struct {
	blockdev.Drive
	k    *sim.Kernel
	fail bool
}

func (d *failDrive) Submit(op blockdev.Op, lpn addr.LPN, pages int, data content.Data, done func(error, content.Data)) {
	if op == blockdev.OpRead && d.fail {
		d.k.After(0, func() { done(errMedia, content.Data{}) })
		return
	}
	d.Drive.Submit(op, lpn, pages, data, done)
}

// TestCodedReadBeyondParity: a read whose data member and k-1 other
// members fail reconstructs the chunk from the m survivors; with k others
// failing too, fewer than m shards survive and the host read fails with
// a member's error.
func TestCodedReadBeyondParity(t *testing.T) {
	for _, cfg := range []Config{raidConfig(RAID5, 4), raidConfig(RAID6, 5)} {
		r := newRig(t, cfg)
		a := r.arr
		sp := a.Config().StripePages
		kp := a.parityCount()
		payload := content.Random(sim.NewRNG(8), sp)
		if err := r.write(t, 0, payload); err != nil {
			t.Fatalf("%v: %v", cfg.Level, err)
		}
		drives := make([]*failDrive, len(a.members))
		for m := range a.members {
			drives[m] = &failDrive{Drive: a.members[m], k: r.k}
			a.members[m] = drives[m]
		}
		// The data member fails first, then the others in index order.
		data := a.chunkAt(0, 0, sp).member
		order := []int{data}
		for m := range a.members {
			if m != data {
				order = append(order, m)
			}
		}
		for _, m := range order[:kp] {
			drives[m].fail = true
		}
		before := a.Stats().Reconstructions
		got, err := r.read(t, 0, sp)
		if err != nil || !got.Equal(payload) {
			t.Fatalf("%v: read with %d failed members: err=%v equal=%v", cfg.Level, kp, err, got.Equal(payload))
		}
		if a.Stats().Reconstructions == before {
			t.Fatalf("%v: read with a failed data member did not reconstruct", cfg.Level)
		}

		drives[order[kp]].fail = true
		if _, err := r.read(t, 0, sp); !errors.Is(err, errMedia) {
			t.Fatalf("%v: read with %d failed members: err=%v, want %v", cfg.Level, kp+1, err, errMedia)
		}
		recordsFree(t, a)
	}
}

func TestCodedFaultRecovery(t *testing.T) {
	for _, cfg := range []Config{raidConfig(RAID5, 3), raidConfig(RAID6, 4), rsConfig(5, 2)} {
		r := newRig(t, cfg)
		payload := content.Random(sim.NewRNG(7), 4)
		if err := r.write(t, 10, payload); err != nil {
			t.Fatalf("%v: %v", cfg.Level, err)
		}
		r.fault(t)
		if _, err := r.read(t, 10, 4); err != nil {
			t.Fatalf("%v: read after recovery: %v", cfg.Level, err)
		}
	}
}

func TestCodedConfigValidation(t *testing.T) {
	if _, err := New(sim.New(), sim.NewRNG(1), raidConfig(RAID6, 3), nil); err == nil {
		t.Fatal("raid6 with 3 members validated")
	}
	if _, err := New(sim.New(), sim.NewRNG(1), rsConfig(3, 2), nil); err == nil {
		t.Fatal("rs leaving one data member validated")
	}
	for _, level := range []Level{RAID5, RAID6, RS} {
		// GF(256) caps every coded stripe at 255 shards.
		if err := raidConfig(level, 256).withDefaults().Validate(); err == nil {
			t.Fatalf("%v with 256 members validated", level)
		}
	}
	cfg := rsConfig(4, 0) // Parity 0 defaults to 2
	arr, err := New(sim.New(), sim.NewRNG(1), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if arr.Config().Parity != 2 {
		t.Fatalf("rs default parity %d, want 2", arr.Config().Parity)
	}
}
