package blockdev

import (
	"slices"
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/racedet"
	"powerfail/internal/sim"
)

// benchDevice completes every sub-request after a fixed latency without
// allocating: completion records are recycled with their fire closure
// created once, mirroring the queue's own free-list discipline so the
// benchmark isolates the block layer's allocations. A read answers
// benchFP of each page, lent from a buffer its record keeps, and the
// record returns to the free list only after done has returned.
type benchDevice struct {
	k    *sim.Kernel
	free []*benchDone
}

type benchDone struct {
	d     *benchDevice
	op    Op
	lpn   addr.LPN
	pages int
	buf   []content.Fingerprint
	done  func(error, content.Data)
	fn    func()
}

// benchFP is what benchDevice reads at page lpn.
func benchFP(lpn addr.LPN) content.Fingerprint { return content.Fingerprint(lpn + 1) }

func (d *benchDevice) Submit(op Op, lpn addr.LPN, pages int, data content.Data, done func(err error, result content.Data)) {
	var r *benchDone
	if n := len(d.free); n > 0 {
		r, d.free = d.free[n-1], d.free[:n-1]
	} else {
		r = &benchDone{d: d}
		r.fn = func() {
			var res content.Data
			if r.op == OpRead {
				r.buf = slices.Grow(r.buf[:0], r.pages)[:r.pages]
				for i := range r.buf {
					r.buf[i] = benchFP(r.lpn + addr.LPN(i))
				}
				res = content.Wrap(r.buf)
			}
			r.done(nil, res)
			r.done = nil
			r.d.free = append(r.d.free, r)
		}
	}
	r.op, r.lpn, r.pages, r.done = op, lpn, pages, done
	d.k.After(50*sim.Microsecond, r.fn)
}

func nopDone(*Request) {}

// BenchmarkQueueSubmitComplete drives one recycled write request through
// submit → split → dispatch → complete per iteration; allocs/op is the
// figure of merit for the per-IO hot path. "armed" arms and stops each
// request's timeout, as a single-drive experiment does. "horizon" runs on
// a kernel with a horizon that every deadline passes, as the fleet's
// 30 s timeout passes its run's end, so no timeout is armed.
func BenchmarkQueueSubmitComplete(b *testing.B) {
	b.Run("armed", func(b *testing.B) { benchSubmitComplete(b, false) })
	b.Run("horizon", func(b *testing.B) { benchSubmitComplete(b, true) })
}

func benchSubmitComplete(b *testing.B, horizon bool) {
	k := sim.New()
	dev := &benchDevice{k: k}
	cfg := DefaultConfig()
	if horizon {
		// Each iteration advances the clock by the device's 50 µs, so a
		// horizon 2^50 ns out is never reached, and a timeout of 2^52 ns
		// always lands past it.
		k.SetHorizon(1 << 50)
		cfg.Timeout = 1 << 52
	}
	q, err := New(k, dev, nil, cfg)
	if err != nil {
		b.Fatal(err)
	}
	payload := content.Zeroes(8)
	write := func(i int) {
		req := q.NewRequest()
		req.Op = OpWrite
		req.LPN = addr.LPN((i % 1024) * 8)
		req.Pages = 8
		req.Data = payload
		req.Done = nopDone
		q.Submit(req)
		k.Run()
	}
	write(0) // warm the free lists, so allocs/op is steady state at -benchtime 1x
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write(i)
	}
}

// BenchmarkQueueSubmitCompleteSplit is the same path with a request large
// enough to split into multiple sub-requests.
func BenchmarkQueueSubmitCompleteSplit(b *testing.B) {
	k := sim.New()
	dev := &benchDevice{k: k}
	q, err := New(k, dev, nil, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	payload := content.Zeroes(300)
	write := func(i int) {
		req := q.NewRequest()
		req.Op = OpWrite
		req.LPN = addr.LPN((i % 64) * 300)
		req.Pages = 300
		req.Data = payload
		req.Done = nopDone
		q.Submit(req)
		k.Run()
	}
	write(0) // warm the free lists, so allocs/op is steady state at -benchtime 1x
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write(i)
	}
}

// splitReadLoop reads 2.5 segments (320 pages at the default 128-page
// segment) through a queue over benchDevice and counts the pages that
// come back wrong.
type splitReadLoop struct {
	k    *sim.Kernel
	q    *Queue
	bad  int
	done func(*Request)
}

func newSplitReadLoop(tb testing.TB) *splitReadLoop {
	tb.Helper()
	k := sim.New()
	q, err := New(k, &benchDevice{k: k}, nil, DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	l := &splitReadLoop{k: k, q: q}
	l.done = func(r *Request) {
		if r.Err != nil || r.Result.Pages() != r.Pages {
			tb.Fatalf("split read: err %v, %d of %d pages", r.Err, r.Result.Pages(), r.Pages)
		}
		for i := 0; i < r.Pages; i++ {
			if r.Result.Page(i) != benchFP(r.LPN+addr.LPN(i)) {
				l.bad++
			}
		}
	}
	return l
}

func (l *splitReadLoop) read(i int) {
	req := l.q.NewRequest()
	req.Op = OpRead
	req.LPN = addr.LPN((i % 64) * 320)
	req.Pages = 320
	req.Done = l.done
	l.q.Submit(req)
	l.k.Run()
}

// TestSplitReadAllocatesNothing pins the split read path: the subs'
// pages are copied into the request's own buffer as they complete, so a
// warmed queue allocates nothing, and every page lands in its place.
func TestSplitReadAllocatesNothing(t *testing.T) {
	if racedet.Enabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	l := newSplitReadLoop(t)
	l.read(0)
	i := 0
	if n := testing.AllocsPerRun(50, func() { i++; l.read(i) }); n != 0 {
		t.Errorf("split read made %v allocs, want 0", n)
	}
	if l.bad != 0 {
		t.Fatalf("%d pages read back wrong", l.bad)
	}
	if s := l.q.Stats(); s.Splits != 2*s.Submitted {
		t.Fatalf("%d splits over %d reads, want 2 each", s.Splits, s.Submitted)
	}
}

// BenchmarkQueueReadSplit is the split read path of
// TestSplitReadAllocatesNothing.
func BenchmarkQueueReadSplit(b *testing.B) {
	l := newSplitReadLoop(b)
	// Two warm-up reads, as TestSplitReadAllocatesNothing makes (AllocsPerRun
	// runs its function once before counting): benchDevice's recycled
	// records trade places between the 128- and 64-page subs, so one of
	// them grows its buffer on the second read.
	l.read(0)
	l.read(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.read(i)
	}
	if l.bad != 0 {
		b.Fatalf("%d pages read back wrong", l.bad)
	}
}
