package blockdev_test

import (
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/blockdev/blockdevtest"
	"powerfail/internal/content"
	"powerfail/internal/sim"
)

// patternDrive serves one command at a time, 100 µs each, so the subs
// of a split read complete at distinct instants. A read answers
// patternFP of each page, in a fresh slice; writes are accepted and
// forgotten.
type patternDrive struct {
	k         *sim.Kernel
	busyUntil sim.Time
}

func patternFP(lpn addr.LPN) content.Fingerprint { return content.Fingerprint(lpn + 1) }

func (d *patternDrive) Submit(op blockdev.Op, lpn addr.LPN, pages int, _ content.Data, done func(error, content.Data)) {
	d.busyUntil = max(d.busyUntil, d.k.Now()).Add(100 * sim.Microsecond)
	d.k.At(d.busyUntil, func() {
		if op != blockdev.OpRead {
			done(nil, content.Data{})
			return
		}
		got := make([]content.Fingerprint, pages)
		for i := range got {
			got[i] = patternFP(lpn + addr.LPN(i))
		}
		done(nil, content.Wrap(got))
	})
}

func (*patternDrive) Name() string       { return "pattern" }
func (*patternDrive) UserPages() int64   { return 1 << 20 }
func (*patternDrive) Ready() bool        { return true }
func (*patternDrive) NotifyReady(func()) {}
func (*patternDrive) NotifyDown(func())  {}

// TestReadsHonourLentResults runs unsplit and split reads, several at a
// time, over a device that poisons each result it lends as soon as the
// loan ends. The queue forwards an unsplit read's loan to Done and copies
// a split read's subs as they complete, so every Done sees its own pages.
func TestReadsHonourLentResults(t *testing.T) {
	k := sim.New()
	dev := blockdevtest.NewLender(k, &patternDrive{k: k})
	q, err := blockdev.New(k, dev, nil, blockdev.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seg := blockdev.DefaultConfig().MaxSegPages
	sizes := []int{1, seg / 2, seg, seg + 1, 5 * seg / 2}
	checked := 0
	done := func(r *blockdev.Request) {
		if r.Err != nil || r.Result.Pages() != r.Pages {
			t.Fatalf("read %d+%d: err %v, %d pages", r.LPN, r.Pages, r.Err, r.Result.Pages())
		}
		for i := 0; i < r.Pages; i++ {
			if got, want := r.Result.Page(i), patternFP(r.LPN+addr.LPN(i)); got != want {
				t.Fatalf("read %d+%d: page %d holds %x, want %x", r.LPN, r.Pages, i, got, want)
			}
		}
		checked++
	}
	for round := 0; round < 20; round++ {
		for j, n := range sizes {
			r := q.NewRequest()
			r.Op, r.LPN, r.Pages, r.Done = blockdev.OpRead, addr.LPN(round*4096+j*512), n, done
			q.Submit(r)
		}
		k.RunFor(sim.Duration(round%3) * 150 * sim.Microsecond)
	}
	k.Run()
	if want := 20 * len(sizes); checked != want {
		t.Fatalf("%d reads checked, want %d", checked, want)
	}
	if s := q.Stats(); s.Splits == 0 || dev.Lent <= checked {
		t.Fatalf("%d splits and %d lent results: the split path went untested", s.Splits, dev.Lent)
	}
}
