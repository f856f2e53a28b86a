package blockdev

import (
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/sim"
)

// benchDevice completes every sub-request after a fixed latency without
// allocating: completion records are recycled with their fire closure
// created once, mirroring the queue's own free-list discipline so the
// benchmark isolates the block layer's allocations.
type benchDevice struct {
	k    *sim.Kernel
	free []*benchDone
}

type benchDone struct {
	d    *benchDevice
	done func(error, content.Data)
	fn   func()
}

func (d *benchDevice) Submit(op Op, lpn addr.LPN, pages int, data content.Data, done func(err error, result content.Data)) {
	var r *benchDone
	if n := len(d.free); n > 0 {
		r, d.free = d.free[n-1], d.free[:n-1]
	} else {
		r = &benchDone{d: d}
		r.fn = func() {
			done := r.done
			r.done = nil
			r.d.free = append(r.d.free, r)
			done(nil, content.Data{})
		}
	}
	r.done = done
	d.k.After(50*sim.Microsecond, r.fn)
}

func nopDone(*Request) {}

// BenchmarkQueueSubmitComplete drives one recycled write request through
// submit → split → dispatch → complete per iteration; allocs/op is the
// figure of merit for the per-IO hot path.
func BenchmarkQueueSubmitComplete(b *testing.B) {
	k := sim.New()
	dev := &benchDevice{k: k}
	q, err := New(k, dev, nil, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	payload := content.Zeroes(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := q.NewRequest()
		req.Op = OpWrite
		req.LPN = addr.LPN((i % 1024) * 8)
		req.Pages = 8
		req.Data = payload
		req.Done = nopDone
		q.Submit(req)
		k.Run()
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := q.NewRequest()
		req.Op = OpWrite
		req.LPN = addr.LPN((i % 64) * 300)
		req.Pages = 300
		req.Data = payload
		req.Done = nopDone
		q.Submit(req)
		k.Run()
	}
}
