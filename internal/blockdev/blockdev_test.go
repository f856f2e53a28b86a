package blockdev

import (
	"errors"
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/blktrace"
	"powerfail/internal/content"
	"powerfail/internal/obs"
	"powerfail/internal/sim"
)

// fakeDevice is a scriptable in-memory device for block-layer tests.
type fakeDevice struct {
	k        *sim.Kernel
	latency  sim.Duration
	failAll  bool
	silent   bool // never answer (forces host timeout)
	pages    map[addr.LPN]content.Fingerprint
	maxInfly int
	infly    int
}

func newFake(k *sim.Kernel) *fakeDevice {
	return &fakeDevice{k: k, latency: 100 * sim.Microsecond, pages: make(map[addr.LPN]content.Fingerprint)}
}

func (d *fakeDevice) Submit(op Op, lpn addr.LPN, pages int, data content.Data, done func(error, content.Data)) {
	d.infly++
	if d.infly > d.maxInfly {
		d.maxInfly = d.infly
	}
	if d.silent {
		return // never completes
	}
	d.k.After(d.latency, func() {
		d.infly--
		if d.failAll {
			done(errors.New("fake device error"), content.Data{})
			return
		}
		switch op {
		case OpWrite:
			for i := 0; i < pages; i++ {
				d.pages[lpn+addr.LPN(i)] = data.Page(i)
			}
			done(nil, content.Data{})
		case OpRead:
			got := make([]content.Fingerprint, pages)
			for i := range got {
				got[i] = d.pages[lpn+addr.LPN(i)]
			}
			done(nil, content.Wrap(got))
		default:
			done(nil, content.Data{})
		}
	})
}

func harness(t *testing.T, cfg Config) (*sim.Kernel, *fakeDevice, *Queue, *blktrace.Tracer) {
	t.Helper()
	k := sim.New()
	dev := newFake(k)
	tr := blktrace.NewTracer()
	q, err := New(k, dev, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, dev, q, tr
}

// request takes a request from q and fills it from tmpl's public fields,
// so a test can write the request as a literal.
func request(q *Queue, tmpl Request) *Request {
	r := q.NewRequest()
	r.Op, r.LPN, r.Pages, r.Data, r.Done = tmpl.Op, tmpl.LPN, tmpl.Pages, tmpl.Data, tmpl.Done
	return r
}

func TestWriteReadRoundTrip(t *testing.T) {
	k, _, q, _ := harness(t, DefaultConfig())
	r := sim.NewRNG(1)
	payload := content.Random(r, 300) // splits into 128+128+44
	var wrote, read bool
	q.Submit(request(q, Request{Op: OpWrite, LPN: 1000, Pages: 300, Data: payload, Done: func(req *Request) {
		if req.Err != nil {
			t.Errorf("write err: %v", req.Err)
		}
		wrote = true
	}}))
	k.Run()
	if !wrote {
		t.Fatal("write never completed")
	}
	q.Submit(request(q, Request{Op: OpRead, LPN: 1000, Pages: 300, Done: func(req *Request) {
		if req.Err != nil {
			t.Errorf("read err: %v", req.Err)
		}
		if !req.Result.Equal(payload) {
			t.Error("read payload differs from written")
		}
		read = true
	}}))
	k.Run()
	if !read {
		t.Fatal("read never completed")
	}
	if q.Stats().Splits != 4 {
		t.Fatalf("splits = %d, want 4 (2 per 300-page request)", q.Stats().Splits)
	}
}

func TestSplitBoundaries(t *testing.T) {
	k, _, q, tr := harness(t, DefaultConfig())
	q.Submit(request(q, Request{Op: OpWrite, LPN: 0, Pages: 257, Data: content.Zeroes(257), Done: func(*Request) {}}))
	k.Run()
	var subs []blktrace.Event
	for _, e := range tr.Events() {
		if e.Act == blktrace.ActSplit {
			subs = append(subs, e)
		}
	}
	if len(subs) != 3 {
		t.Fatalf("sub-requests = %d, want 3", len(subs))
	}
	if subs[0].Pages != 128 || subs[1].Pages != 128 || subs[2].Pages != 1 {
		t.Fatalf("split sizes wrong: %+v", subs)
	}
	if subs[1].LPN != 128 || subs[2].LPN != 256 {
		t.Fatalf("split offsets wrong: %+v", subs)
	}
}

func TestDepthRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Depth = 4
	k, dev, q, _ := harness(t, cfg)
	for i := 0; i < 20; i++ {
		q.Submit(request(q, Request{Op: OpWrite, LPN: addr.LPN(i * 10), Pages: 1, Data: content.Zeroes(1), Done: func(*Request) {}}))
	}
	k.Run()
	if dev.maxInfly > 4 {
		t.Fatalf("device saw %d in flight, depth is 4", dev.maxInfly)
	}
	if q.Stats().Completed != 20 {
		t.Fatalf("completed = %d", q.Stats().Completed)
	}
}

func TestQueueFullRejection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PendingCap = 2
	cfg.Depth = 1
	k, dev, q, tr := harness(t, cfg)
	dev.latency = 10 * sim.Millisecond
	rejected := 0
	for i := 0; i < 10; i++ {
		q.Submit(request(q, Request{Op: OpWrite, LPN: addr.LPN(i), Pages: 1, Data: content.Zeroes(1), Done: func(req *Request) {
			if req.NotIssued {
				if req.Err != ErrQueueFull {
					t.Errorf("rejected with %v", req.Err)
				}
				rejected++
			}
		}}))
	}
	k.Run()
	if rejected == 0 {
		t.Fatal("no rejections despite tiny queue")
	}
	if int(q.Stats().Rejected) != rejected {
		t.Fatalf("stats.Rejected=%d, callbacks=%d", q.Stats().Rejected, rejected)
	}
	sawReject := false
	for _, e := range tr.Events() {
		if e.Act == blktrace.ActReject {
			sawReject = true
		}
	}
	if !sawReject {
		t.Fatal("no reject trace event")
	}
}

func TestDeviceErrorPropagates(t *testing.T) {
	k, dev, q, tr := harness(t, DefaultConfig())
	dev.failAll = true
	var gotErr error
	q.Submit(request(q, Request{Op: OpWrite, LPN: 0, Pages: 200, Data: content.Zeroes(200), Done: func(req *Request) {
		gotErr = req.Err
	}}))
	k.Run()
	if gotErr == nil {
		t.Fatal("device error not surfaced")
	}
	errs := 0
	for _, e := range tr.Events() {
		if e.Act == blktrace.ActError {
			errs++
		}
	}
	if errs != 2 {
		t.Fatalf("error events = %d, want 2 (one per sub)", errs)
	}
	if q.Stats().Errored != 1 {
		t.Fatalf("stats errored = %d", q.Stats().Errored)
	}
}

func TestTimeout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Timeout = 100 * sim.Millisecond
	k, dev, q, tr := harness(t, cfg)
	dev.silent = true
	var gotErr error
	done := false
	q.Submit(request(q, Request{Op: OpWrite, LPN: 0, Pages: 1, Data: content.Zeroes(1), Done: func(req *Request) {
		gotErr = req.Err
		done = true
	}}))
	k.Run()
	if !done || gotErr != ErrTimeout {
		t.Fatalf("timeout not delivered: done=%v err=%v", done, gotErr)
	}
	sawTimeout := false
	for _, e := range tr.Events() {
		if e.Act == blktrace.ActTimeout {
			sawTimeout = true
		}
	}
	if !sawTimeout {
		t.Fatal("no timeout trace event")
	}
	if k.Now() < sim.Time(100*sim.Millisecond) {
		t.Fatal("completed before the timeout deadline")
	}
}

// TestTimeoutAtHorizonFires: a deadline exactly at the kernel's horizon
// can still fire, so it is armed, and a never-answering device times out.
func TestTimeoutAtHorizonFires(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Timeout = 100 * sim.Millisecond
	k, dev, q, _ := harness(t, cfg)
	dev.silent = true
	h := sim.Time(0).Add(cfg.Timeout)
	k.SetHorizon(h)
	var gotErr error
	q.Submit(request(q, Request{Op: OpWrite, Pages: 1, Data: content.Zeroes(1), Done: func(r *Request) { gotErr = r.Err }}))
	k.RunUntil(h)
	if gotErr != ErrTimeout || q.Stats().TimedOut != 1 {
		t.Fatalf("at the horizon: err %v, %d timed out; want %v, 1", gotErr, q.Stats().TimedOut, ErrTimeout)
	}
}

// TestNoTimeoutPastHorizon: a deadline past the horizon could never fire,
// so Submit schedules nothing for it, and the request completes as usual.
func TestNoTimeoutPastHorizon(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Timeout = 100 * sim.Millisecond
	k, _, q, _ := harness(t, cfg)
	h := sim.Time(0).Add(cfg.Timeout - 1)
	k.SetHorizon(h)
	var gotErr error
	done := false
	q.Submit(request(q, Request{Op: OpWrite, Pages: 1, Data: content.Zeroes(1), Done: func(r *Request) { gotErr, done = r.Err, true }}))
	if n := k.Pending(); n != 1 {
		t.Fatalf("%d timers pending after Submit, want only the device's completion", n)
	}
	k.RunUntil(h)
	if !done || gotErr != nil || q.Stats().Completed != 1 || q.Stats().TimedOut != 0 || k.Pending() != 0 {
		t.Fatalf("done %v, err %v, stats %+v, %d pending; want a clean completion and nothing left", done, gotErr, q.Stats(), k.Pending())
	}
}

// TestRecycledRequestDropsTimeout: a request whose last use armed a
// timeout, resubmitted where its deadline lies past the horizon, carries
// the zero Timer, not the stale handle.
func TestRecycledRequestDropsTimeout(t *testing.T) {
	k, _, q, _ := harness(t, DefaultConfig())
	first := request(q, Request{Op: OpWrite, Pages: 1, Data: content.Zeroes(1), Done: func(*Request) {}})
	q.Submit(first)
	if !first.timeout.Pending() {
		t.Fatal("without a horizon the timeout was not armed")
	}
	k.Run()
	k.SetHorizon(k.Now().Add(sim.Second))
	again := request(q, Request{Op: OpWrite, Pages: 1, Data: content.Zeroes(1), Done: func(*Request) {}})
	if again != first {
		t.Fatal("the queue did not recycle its request")
	}
	q.Submit(again)
	if again.timeout != (sim.Timer{}) {
		t.Fatalf("recycled request carries timeout %+v, want the zero Timer", again.timeout)
	}
	k.RunUntil(k.Now().Add(sim.Second))
	if s := q.Stats(); s.Completed != 2 || s.TimedOut != 0 {
		t.Fatalf("stats %+v, want 2 completed and no timeout", s)
	}
}

func TestFlushRequest(t *testing.T) {
	k, _, q, _ := harness(t, DefaultConfig())
	done := false
	q.Submit(request(q, Request{Op: OpFlush, Done: func(req *Request) {
		if req.Err != nil {
			t.Errorf("flush err: %v", req.Err)
		}
		done = true
	}}))
	k.Run()
	if !done {
		t.Fatal("flush never completed")
	}
}

func TestTraceLifecycle(t *testing.T) {
	k, _, q, tr := harness(t, DefaultConfig())
	q.Submit(request(q, Request{Op: OpWrite, LPN: 5, Pages: 1, Data: content.Zeroes(1), Done: func(*Request) {}}))
	k.Run()
	var acts []blktrace.Action
	for _, e := range tr.Events() {
		acts = append(acts, e.Act)
	}
	want := []blktrace.Action{blktrace.ActQueue, blktrace.ActSplit, blktrace.ActDispatch, blktrace.ActComplete}
	if len(acts) != len(want) {
		t.Fatalf("events: %v", acts)
	}
	for i := range want {
		if acts[i] != want[i] {
			t.Fatalf("event %d = %c, want %c", i, acts[i], want[i])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	k := sim.New()
	if _, err := New(k, newFake(k), nil, Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := New(k, nil, nil, DefaultConfig()); err == nil {
		t.Fatal("nil device accepted")
	}
}

func TestPanicsOnBadRequests(t *testing.T) {
	_, _, q, _ := harness(t, DefaultConfig())
	_, _, other, _ := harness(t, DefaultConfig())
	done := func(*Request) {}
	assertPanics(t, func() { q.Submit(request(q, Request{Op: OpWrite, Pages: 0, Done: done})) })
	assertPanics(t, func() { q.Submit(request(q, Request{Op: OpWrite, Pages: 2, Data: content.Zeroes(1), Done: done})) })
	// A request this queue's NewRequest did not hand out.
	assertPanics(t, func() { q.Submit(request(other, Request{Op: OpWrite, Pages: 1, Data: content.Zeroes(1), Done: done})) })
	// A request with no Done would never be recycled.
	assertPanics(t, func() { q.Submit(request(q, Request{Op: OpWrite, Pages: 1, Data: content.Zeroes(1)})) })
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestOpStrings(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" || OpFlush.String() != "flush" {
		t.Fatal("op strings wrong")
	}
}

// chaosDevice answers each sub-request after a random latency that may
// outlast the host timeout, fails a share of them, and models power
// loss: while off it fails new commands fast, and commands in flight at
// the cut never answer.
type chaosDevice struct {
	k       *sim.Kernel
	rng     *sim.RNG
	timeout sim.Duration
	on      bool
	epoch   int

	errors, late, dropped int
}

var errMedia = errors.New("chaos: media error")

func (d *chaosDevice) Submit(op Op, _ addr.LPN, pages int, _ content.Data, done func(error, content.Data)) {
	if !d.on {
		d.errors++
		d.k.After(10*sim.Microsecond, func() { done(ErrDeviceGone, content.Data{}) })
		return
	}
	epoch := d.epoch
	lat := d.rng.DurationRange(10*sim.Microsecond, 200*sim.Microsecond)
	if d.rng.Prob(0.05) {
		lat = d.rng.DurationRange(d.timeout/2, 3*d.timeout/2) // a stall
	}
	fail := d.rng.Prob(0.1)
	d.k.After(lat, func() {
		if d.epoch != epoch {
			d.dropped++
			return
		}
		if lat > d.timeout {
			// Dispatch never precedes queueing, so the request's timer
			// has already fired: this is a late sub-request completion.
			d.late++
		}
		if fail {
			d.errors++
			done(errMedia, content.Data{})
			return
		}
		var res content.Data
		if op == OpRead {
			res = content.Zeroes(pages)
		}
		done(nil, res)
	})
}

// chaosRun builds one seeded chaos shape: a queue with a random
// config over a chaosDevice, recording into a fresh tracer, with 200
// random requests and three power cuts scheduled on k. done sees every
// request's completion. The caller runs k.
func chaosRun(seed uint64, done func(*Request)) (k *sim.Kernel, rng *sim.RNG, q *Queue, dev *chaosDevice, tr *blktrace.Tracer) {
	rng = sim.NewRNG(seed)
	k = sim.New()
	cfg := Config{
		MaxSegPages: rng.IntRange(1, 8),
		Depth:       rng.IntRange(1, 4),
		PendingCap:  rng.IntRange(4, 32),
		Timeout:     sim.Duration(rng.IntRange(1, 5)) * sim.Millisecond,
	}
	dev = &chaosDevice{k: k, rng: rng.Fork("dev"), timeout: cfg.Timeout, on: true}
	tr = blktrace.NewTracer()
	q, err := New(k, dev, tr, cfg)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 200; i++ {
		at := rng.DurationRange(0, 200*sim.Millisecond)
		k.After(at, func() {
			req := q.NewRequest()
			req.Op = Op(rng.Intn(3))
			if req.Op != OpFlush {
				req.LPN = addr.LPN(rng.Intn(1000))
				req.Pages = rng.IntRange(1, 20)
			}
			if req.Op == OpWrite {
				req.Data = content.Zeroes(req.Pages)
			}
			req.Done = done
			q.Submit(req)
		})
	}
	for c := 0; c < 3; c++ {
		cut := rng.DurationRange(0, 200*sim.Millisecond)
		k.After(cut, func() { dev.on = false; dev.epoch++ })
		k.After(cut+rng.DurationRange(sim.Millisecond, 5*sim.Millisecond), func() { dev.on = true })
	}
	return k, rng, q, dev, tr
}

// TestCompletionMatchesTraceAssembly cross-checks the block layer's two
// views of the paper's "completed" flag over seeded random request
// shapes: the request's own outcome (a nil Err) and the btt-style
// assembly of its trace events. Splits, sub-request errors, the timeout
// with late sub-request completions, queue-full rejects and power loss
// are all exercised, and every request must agree.
func TestCompletionMatchesTraceAssembly(t *testing.T) {
	var reqs, completed, rejects, timeouts, splits, errs, late, dropped int
	for seed := uint64(1); seed <= 40; seed++ {
		outcome := map[uint64]bool{} // request id -> Err == nil
		k, _, q, dev, tr := chaosRun(seed, func(r *Request) {
			if _, dup := outcome[r.ID]; dup {
				t.Errorf("seed %d: request %d completed twice", seed, r.ID)
			}
			outcome[r.ID] = r.Err == nil
		})
		k.Run()

		ios := blktrace.Assemble(tr.Events())
		if len(ios) != 200 || len(outcome) != 200 {
			t.Fatalf("seed %d: %d assembled IOs and %d completions, want 200 each", seed, len(ios), len(outcome))
		}
		for _, io := range ios {
			ok, seen := outcome[io.Req]
			if !seen {
				t.Fatalf("seed %d: traced request %d never completed", seed, io.Req)
			}
			if io.Complete() != ok {
				t.Fatalf("seed %d: request %d assembled complete=%v, but Err==nil is %v (%+v)", seed, io.Req, io.Complete(), ok, *io)
			}
		}
		st := q.Stats()
		reqs += len(ios)
		completed += int(st.Completed)
		rejects += int(st.Rejected)
		timeouts += int(st.TimedOut)
		splits += int(st.Splits)
		errs += dev.errors
		late += dev.late
		dropped += dev.dropped
	}
	t.Logf("%d requests: %d completed, %d rejected, %d timed out, %d splits, %d sub errors, %d late, %d dropped at a cut",
		reqs, completed, rejects, timeouts, splits, errs, late, dropped)
	for name, n := range map[string]int{"completions": completed, "rejects": rejects, "timeouts": timeouts, "splits": splits,
		"sub-request errors": errs, "late completions": late, "power-loss drops": dropped} {
		if n == 0 {
			t.Errorf("no %s exercised", name)
		}
	}
}

// TestBlockIOSpansMatchAssembly pins the queue's own blkio spans to what
// blktrace.Assemble makes of the same queue's events: on the chaos shapes
// above, flushed at random instants (plus once at the end), each flush
// must emit exactly the Complete IOs of the events since the previous
// flush, in the same order and with the same start, duration, name and
// value. A request whose events straddle a flush is dropped by both.
func TestBlockIOSpansMatchAssembly(t *testing.T) {
	var spans, straddled, flushes int
	for seed := uint64(1); seed <= 40; seed++ {
		k, rng, q, _, tr := chaosRun(seed, func(*Request) {})
		q.RecordSpans()
		set := obs.NewSet(obs.Config{Trace: true, TraceCap: 1 << 12})
		sc := set.Scope("blk")
		flush := func() {
			var want []obs.Event
			for _, io := range blktrace.Assemble(tr.Events()) {
				if io.Complete() {
					want = append(want, obs.Event{At: io.QueueAt, Dur: io.Q2C(), Kind: obs.KindBlockIO, Comp: "blk", Name: io.Op.String(), Value: int64(io.Req)})
				} else if io.Subs == 0 && !io.Rejected {
					straddled++ // queued before the previous flush
				}
			}
			tr.Reset()
			before := set.Trace().Len()
			q.FlushSpans(sc)
			got := set.Trace().Events()[before:]
			if len(got) != len(want) {
				t.Fatalf("seed %d, flush at %v: %d spans, Assemble gives %d", seed, k.Now(), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d, flush at %v, span %d: got %+v, want %+v", seed, k.Now(), i, got[i], want[i])
				}
			}
			spans += len(got)
			flushes++
		}
		for f := 0; f < 4; f++ {
			k.After(rng.DurationRange(0, 220*sim.Millisecond), flush)
		}
		k.Run()
		flush()
	}
	t.Logf("%d spans over %d flushes; %d requests straddled a flush", spans, flushes, straddled)
	if spans == 0 || straddled == 0 {
		t.Errorf("spans %d, straddling requests %d: both must be exercised", spans, straddled)
	}
}

// TestSpansOffByDefault: a queue that was never asked to record spans
// keeps no span state and flushes nothing.
func TestSpansOffByDefault(t *testing.T) {
	k, _, q, _ := harness(t, DefaultConfig())
	q.Submit(request(q, Request{Op: OpWrite, Pages: 1, Data: content.Zeroes(1), Done: func(*Request) {}}))
	k.Run()
	set := obs.NewSet(obs.Config{Trace: true})
	q.FlushSpans(set.Scope("blk"))
	if q.spans != nil || set.Trace().Len() != 0 {
		t.Fatalf("span state %v, %d events flushed; want none", q.spans, set.Trace().Len())
	}
}

// heldDevice keeps every completion callback until the test answers it.
type heldDevice struct {
	held []func(error, content.Data)
}

func (d *heldDevice) Submit(_ Op, _ addr.LPN, _ int, _ content.Data, done func(error, content.Data)) {
	d.held = append(d.held, done)
}

// TestSharedPoolsCrossQueueRecycling pins what makes one Pools safe to
// share between queues: a request abandoned by queue A and handed out
// again by queue B leaves A holding a stale dispatch entry and a late
// device completion for it, and both must be ignored. The record must
// also answer to B afterwards, so B's timeout is B's.
func TestSharedPoolsCrossQueueRecycling(t *testing.T) {
	k := sim.New()
	cfg := DefaultConfig()
	cfg.MaxSegPages, cfg.Depth, cfg.Timeout = 1, 1, sim.Millisecond
	pools := &Pools{}
	devA, devB := &heldDevice{}, &heldDevice{}
	qa, err := NewWithPools(k, devA, nil, cfg, pools)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := NewWithPools(k, devB, nil, cfg, pools)
	if err != nil {
		t.Fatal(err)
	}

	// A two-sub write on A: sub 0 goes to A's silent device, sub 1 waits
	// in A's dispatch FIFO, and the request times out.
	ra := qa.NewRequest()
	ra.Op, ra.Pages, ra.Data = OpWrite, 2, content.Zeroes(2)
	aDone := 0
	ra.Done = func(r *Request) {
		aDone++
		if r.Err != ErrTimeout {
			t.Errorf("A's request finished with %v, want a timeout", r.Err)
		}
	}
	qa.Submit(ra)
	k.Run()
	if aDone != 1 || len(devA.held) != 1 || qa.Inflight() != 1 || qa.PendingSubs() != 1 {
		t.Fatalf("A after timeout: done %d, dispatched %d, inflight %d, pending %d; want 1, 1, 1, 1",
			aDone, len(devA.held), qa.Inflight(), qa.PendingSubs())
	}

	// B reuses the record for a one-page read.
	rb := qb.NewRequest()
	if rb != ra {
		t.Fatal("B did not reuse the request A released")
	}
	rb.Op, rb.LPN, rb.Pages = OpRead, 7, 1
	bDone := 0
	var bRes content.Data
	var bErr error
	rb.Done = func(r *Request) {
		bDone++
		bRes, bErr = r.Result, r.Err
	}
	qb.Submit(rb)

	// A's device answers the old occupancy late: the completion and the
	// stale FIFO entry A's pump then meets must both be ignored.
	devA.held[0](nil, content.Make(0xdead))
	if bDone != 0 {
		t.Fatalf("A's late completion finished B's request (result %v, err %v)", bRes, bErr)
	}
	if len(devA.held) != 1 || qa.Inflight() != 0 || qa.PendingSubs() != 0 {
		t.Fatalf("A after its late completion: dispatched %d, inflight %d, pending %d; want 1, 0, 0",
			len(devA.held), qa.Inflight(), qa.PendingSubs())
	}

	want := content.Make(0xbeef)
	devB.held[0](nil, want)
	k.Run()
	if bDone != 1 || bErr != nil || !bRes.Equal(want) {
		t.Fatalf("B's read: done %d times, err %v, result %v; want once, nil, %v", bDone, bErr, bRes, want)
	}
	if qb.Inflight() != 0 || qb.PendingSubs() != 0 {
		t.Fatalf("B after completion: inflight %d, pending %d", qb.Inflight(), qb.PendingSubs())
	}

	// The same record again on B, this time timing out: the timeout is
	// charged to B, the queue that handed it out, not to A.
	rb2 := qb.NewRequest()
	if rb2 != ra {
		t.Fatal("B did not reuse its own released request")
	}
	rb2.Op, rb2.Pages, rb2.Data = OpWrite, 1, content.Zeroes(1)
	rb2.Done = func(*Request) {}
	qb.Submit(rb2)
	k.Run()
	devB.held[1](nil, content.Data{})
	k.Run()
	if qa.Stats().TimedOut != 1 || qb.Stats().TimedOut != 1 {
		t.Fatalf("timeouts: A %d, B %d; want 1 each", qa.Stats().TimedOut, qb.Stats().TimedOut)
	}
	if qb.Inflight() != 0 || qb.PendingSubs() != 0 {
		t.Fatalf("B after its late completion: inflight %d, pending %d", qb.Inflight(), qb.PendingSubs())
	}
	if reqs, calls := pools.InUse(); reqs != 0 || calls != 0 {
		t.Fatalf("records still out: %d requests, %d calls", reqs, calls)
	}
}
