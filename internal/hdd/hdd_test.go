package hdd

import (
	"errors"
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/power"
	"powerfail/internal/sim"
)

type rig struct {
	k    *sim.Kernel
	psu  *power.PSU
	disk *Disk
}

func newRig(t *testing.T, prof Profile) *rig {
	t.Helper()
	k := sim.New()
	psu, err := power.New(k, power.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(k, sim.NewRNG(3), prof, psu)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, psu: psu, disk: d}
}

func (r *rig) write(t *testing.T, lpn addr.LPN, data content.Data) error {
	t.Helper()
	var out error
	done := false
	r.disk.Submit(blockdev.OpWrite, lpn, data.Pages(), data, func(err error, _ content.Data) {
		out = err
		done = true
	})
	r.k.RunWhile(func() bool { return !done })
	return out
}

func (r *rig) read(t *testing.T, lpn addr.LPN, pages int) (content.Data, error) {
	t.Helper()
	var out content.Data
	var rerr error
	done := false
	r.disk.Submit(blockdev.OpRead, lpn, pages, content.Data{}, func(err error, d content.Data) {
		// The result is lent: keep a copy.
		buf := make([]content.Fingerprint, d.Pages())
		d.CopyTo(buf)
		out, rerr = content.Wrap(buf), err
		done = true
	})
	r.k.RunWhile(func() bool { return !done })
	return out, rerr
}

func TestRoundTrip(t *testing.T) {
	r := newRig(t, DefaultProfile())
	payload := content.Random(sim.NewRNG(1), 32)
	if err := r.write(t, 100, payload); err != nil {
		t.Fatal(err)
	}
	got, err := r.read(t, 100, 32)
	if err != nil || !got.Equal(payload) {
		t.Fatal("round trip failed")
	}
}

func TestMechanicalLatency(t *testing.T) {
	r := newRig(t, DefaultProfile())
	start := r.k.Now()
	r.write(t, 0, content.Random(sim.NewRNG(2), 1))
	elapsed := r.k.Now().Sub(start)
	// Seek (8 ms) + half-rotation (~4.2 ms at 7200 RPM) at minimum.
	if elapsed < 12*sim.Millisecond {
		t.Fatalf("write finished in %s; no mechanical latency", elapsed)
	}
}

// TestWriteThroughSurvivesPowerLoss: an acknowledged write on a
// write-through HDD is durable — the property that distinguishes it from
// the SSDs in this repository.
func TestWriteThroughSurvivesPowerLoss(t *testing.T) {
	r := newRig(t, DefaultProfile())
	payload := content.Random(sim.NewRNG(5), 16)
	if err := r.write(t, 50, payload); err != nil {
		t.Fatal(err)
	}
	r.psu.PowerOff()
	r.k.RunFor(2 * sim.Second)
	r.psu.PowerOn()
	r.k.RunFor(3 * sim.Second) // spin-up
	if !r.disk.Ready() {
		t.Fatal("disk never recovered")
	}
	got, err := r.read(t, 50, 16)
	if err != nil || !got.Equal(payload) {
		t.Fatal("acknowledged write-through data lost")
	}
}

// TestTornSectorOnCut: cutting power mid-write tears exactly the sector
// under the head; the ACK never arrives.
func TestTornSectorOnCut(t *testing.T) {
	r := newRig(t, DefaultProfile())
	// 8 MB of media time (~53 ms) so the write straddles the ~41 ms
	// discharge between the cut command and the brownout.
	const pages = 2048
	payload := content.Random(sim.NewRNG(6), pages)
	acked := false
	r.disk.Submit(blockdev.OpWrite, 0, pages, payload, func(err error, _ content.Data) {
		acked = err == nil
	})
	r.k.RunFor(5 * sim.Millisecond)
	r.psu.PowerOff()
	r.k.RunFor(2 * sim.Second)
	if acked {
		t.Fatal("interrupted write was acknowledged")
	}
	if r.disk.Stats().TornSectors != 1 {
		t.Fatalf("torn sectors = %d, want 1", r.disk.Stats().TornSectors)
	}
	r.psu.PowerOn()
	r.k.RunFor(3 * sim.Second)
	got, err := r.read(t, 0, pages)
	if err != nil {
		t.Fatal(err)
	}
	matches, torn := 0, 0
	for i := 0; i < pages; i++ {
		switch got.Page(i) {
		case payload.Page(i):
			matches++
		case content.Zero:
			// never reached
		default:
			torn++
		}
	}
	if torn != 1 {
		t.Fatalf("torn pages = %d, want exactly 1", torn)
	}
	if matches == 0 {
		t.Fatal("no pages committed before the cut")
	}
}

// TestCutAnswersEveryCommand: a cut errors every command the drive has
// accepted and not answered, not only the last one submitted. Three writes
// and a read are queued back to back and the rail drops while the second
// write is under the head: the first write ACKs, the torn sector lies in
// the second, the third never reaches the platter, and every completion
// fires exactly once.
func TestCutAnswersEveryCommand(t *testing.T) {
	r := newRig(t, DefaultProfile())
	// 2048 pages is ~55 ms of media time per write, so with seek and
	// rotation the second write holds the head from ~79 ms to ~134 ms.
	const pages = 2048
	lpns := [3]addr.LPN{0, 10000, 20000}
	old := content.Random(sim.NewRNG(9), pages)
	if err := r.write(t, lpns[2], old); err != nil {
		t.Fatal(err)
	}
	var payload [3]content.Data
	calls := make([]int, 4)
	errs := make([]error, 4)
	for i, lpn := range lpns {
		payload[i] = content.Random(sim.NewRNG(uint64(10+i)), pages)
		r.disk.Submit(blockdev.OpWrite, lpn, pages, payload[i], func(err error, _ content.Data) {
			calls[i]++
			errs[i] = err
		})
	}
	r.disk.Submit(blockdev.OpRead, lpns[0], pages, content.Data{}, func(err error, _ content.Data) {
		calls[3]++
		errs[3] = err
	})
	// The rail falls below brownout ~41 ms after the cut command.
	r.k.RunFor(60 * sim.Millisecond)
	r.psu.PowerOff()
	r.k.RunFor(2 * sim.Second)
	if errs[0] != nil {
		t.Fatalf("first write, done before the cut, failed: %v", errs[0])
	}
	for i := 1; i < 4; i++ {
		if !errors.Is(errs[i], ErrUnavailable) {
			t.Fatalf("command %d err = %v, want ErrUnavailable", i, errs[i])
		}
	}
	if len(r.disk.jobs) != 0 {
		t.Fatalf("%d commands still outstanding after the cut", len(r.disk.jobs))
	}
	if r.disk.Stats().TornSectors != 1 {
		t.Fatalf("torn sectors = %d, want 1", r.disk.Stats().TornSectors)
	}
	r.psu.PowerOn()
	r.k.RunFor(3 * sim.Second)
	for i, lpn := range lpns {
		got, err := r.read(t, lpn, pages)
		if err != nil {
			t.Fatal(err)
		}
		want := payload[i]
		if i == 2 {
			want = old
		}
		committed, torn := 0, 0
		for p := 0; p < pages; p++ {
			switch got.Page(p) {
			case want.Page(p):
				committed++
			case content.Zero:
				// past the torn sector: never reached
			default:
				torn++
			}
		}
		switch {
		case i == 1 && (torn != 1 || committed == 0):
			t.Fatalf("second write: %d torn, %d committed; want 1 torn after some committed", torn, committed)
		case i != 1 && committed != pages:
			t.Fatalf("write %d: %d of %d pages hold the expected content", i, committed, pages)
		}
	}
	for i, n := range calls {
		if n != 1 {
			t.Fatalf("command %d answered %d times, want once", i, n)
		}
	}
}

func TestUnavailableFailsFast(t *testing.T) {
	r := newRig(t, DefaultProfile())
	r.psu.PowerOff()
	r.k.RunFor(60 * sim.Millisecond)
	_, err := r.read(t, 0, 1)
	if err != ErrUnavailable {
		t.Fatalf("err = %v", err)
	}
}

func TestOutOfRange(t *testing.T) {
	r := newRig(t, DefaultProfile())
	if err := r.write(t, addr.LPN(r.disk.Profile().UserPages()), content.Random(sim.NewRNG(8), 1)); err == nil {
		t.Fatal("out-of-range write accepted")
	}
}

func TestValidation(t *testing.T) {
	bad := Profile{}
	if bad.Validate() == nil {
		t.Fatal("zero profile accepted")
	}
	if DefaultProfile().Validate() != nil {
		t.Fatal("default profile invalid")
	}
}

// TestCutDuringSpinUpAbortsRecovery: a second power loss inside the
// spin-up window must cancel the pending recovery — the drive may not
// come back on the bus while the rail is down, and the next power-good
// must start a fresh spin-up.
func TestCutDuringSpinUpAbortsRecovery(t *testing.T) {
	r := newRig(t, DefaultProfile())
	r.psu.PowerOff()
	r.k.RunFor(2 * sim.Second)
	r.psu.PowerOn()
	r.k.RunFor(500 * sim.Millisecond) // mid spin-up (RecoveryTime is 2 s)
	r.psu.PowerOff()
	r.k.RunFor(5 * sim.Second)
	if r.disk.Ready() {
		t.Fatal("drive became available with the rail down")
	}
	ready := false
	r.disk.NotifyReady(func() { ready = true })
	r.psu.PowerOn()
	r.k.RunFor(3 * sim.Second)
	if !r.disk.Ready() || !ready {
		t.Fatalf("drive never recovered after the real power-good (available=%v ready=%v)",
			r.disk.Ready(), ready)
	}
}
