// Package blockdev models the host side of the IO path: the operating
// system block layer between the paper's IO generator and the SSD. It
// splits large requests into sub-requests at a segment limit, dispatches
// them to the device under a bounded queue depth, records blktrace events
// for every state transition when given a tracer, keeps blkio spans of
// completed requests when asked (RecordSpans), aggregates sub-request
// completions, and enforces the 30 second request timeout the paper's
// analyzer uses to declare delayed requests incomplete. A timeout is
// armed only when it can fire: a deadline past the kernel's declared
// horizon (sim.Kernel.SetHorizon; the fleet declares its run's end) is
// skipped, and a deadline exactly at the horizon is still armed.
// Trace events are built only when a tracer is attached.
//
// The queue is on the per-IO hot path of every experiment, so it is
// allocation-free in steady state: sub-requests are inline values in the
// parent request, the dispatch FIFO is a reusable ring of direct
// {request, index} entries (no per-sub map), device completion callbacks
// come from a free list of records with cached closures, and every
// request comes from NewRequest and is recycled through a free list. The
// free lists live in a Pools that several queues may share (a fleet hands
// one to every member queue), so the record a queue reuses is the one any
// queue returned last, still in cache. Queues sharing a Pools run on one
// kernel and are single-threaded (campaign parallelism is across
// experiments), so the free lists need no locking. Generation counters
// on recycled requests make stale dispatch entries and late device
// completions safely ignorable, also after a record has moved to another
// queue of the same Pools.
package blockdev

import (
	"errors"
	"fmt"
	"slices"

	"powerfail/internal/addr"
	"powerfail/internal/blktrace"
	"powerfail/internal/content"
	"powerfail/internal/pool"
	"powerfail/internal/sim"
)

// Op is the request direction.
type Op int

// Request operations.
const (
	OpRead Op = iota
	OpWrite
	OpFlush
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFlush:
		return "flush"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

func (o Op) traceKind() blktrace.OpKind {
	switch o {
	case OpRead:
		return blktrace.OpRead
	case OpWrite:
		return blktrace.OpWrite
	default:
		return blktrace.OpFlush
	}
}

// Errors surfaced to request completion callbacks.
var (
	ErrQueueFull  = errors.New("blockdev: host queue full, request not issued")
	ErrTimeout    = errors.New("blockdev: request timed out")
	ErrDeviceGone = errors.New("blockdev: device unavailable")
)

// Request is one host IO. Take it from the queue with NewRequest, fill Op,
// LPN, Pages, Done and (for writes) Data, then Submit it; Done fires exactly
// once with the final state. The request is recycled automatically after
// Done returns, so callers must not retain it. Its Result is lent on the
// terms of Device: Done reads it, or copies the pages it keeps.
type Request struct {
	ID    uint64
	Op    Op
	LPN   addr.LPN
	Pages int
	// Data is the write payload. It must stay unchanged until Done.
	Data content.Data
	// Result is the read payload: an unsplit read forwards the device's
	// lent result, a split one is copied together in buf.
	Result content.Data
	// Control marks platform verification traffic that experiments must
	// not count as workload.
	Control bool

	Queued    sim.Time
	Completed sim.Time
	Err       error
	// NotIssued is set when the host queue rejected the request, the
	// "Not Issued?" flag of the paper's data packet header.
	NotIssued bool

	Done func(*Request)

	subs      []subRequest
	buf       []content.Fingerprint // a split read's pages; kept across reuses
	remaining int
	timeout   sim.Timer
	finished  bool

	// Pooling state. gen identifies the current occupancy of a recycled
	// request: dispatch entries and device callbacks carry the gen they
	// were created under and are ignored once it is stale. q is the queue
	// the request was last handed out by. The closures are allocated once
	// per request and reused for its lifetime.
	q         *Queue
	gen       uint32
	timeoutFn func()
	doneEv    func()
}

type subRequest struct {
	idx   int
	lpn   addr.LPN
	pages int
	off   int // page offset within the parent
	done  bool
}

// pendingSub is one dispatch-FIFO entry: a direct {request, sub index}
// pair plus the request generation it was queued under.
type pendingSub struct {
	r   *Request
	idx int
	gen uint32
}

// subCall is a recycled device-completion record. cb is created once,
// capturing the record; each dispatch refills q/r/idx/gen and hands the
// same closure to the device, so steady-state dispatch allocates nothing.
type subCall struct {
	q   *Queue
	r   *Request
	idx int
	gen uint32
	cb  func(err error, result content.Data)
}

// Device is the disk interface the block layer drives. Submit must invoke
// done exactly once for every command it accepts, from a kernel event at
// the simulated completion instant (never from within Submit), with the
// read payload for reads; a device that cannot serve a command
// (unavailable, dead mid-operation) answers it with an error. The queue
// frees a Depth slot only when done runs: the request timeout finishes
// the host request but keeps the slot, so a command never answered holds
// its slot for good.
//
// A read result is lent, not given: the device may reuse its pages for
// a later command, so they stay unchanged only while done runs and until
// every event scheduled before done returned, for that same instant, has
// fired. The queue's own completion event (Request.Done runs after a
// zero delay) falls inside that window. A holder that keeps pages longer
// copies them into storage of its own; a lender recycles the record that
// owns the pages only after the done it called has returned.
type Device interface {
	Submit(op Op, lpn addr.LPN, pages int, data content.Data, done func(err error, result content.Data))
}

// Drive is the full device contract the platform hangs behind the block
// layer: request submission plus identity, capacity and power-state
// signals. The SSD and HDD models implement it directly; internal/array
// composes several Drives into one (RAID levels, SSD cache over HDD).
type Drive interface {
	Device
	// Name identifies the device in reports ("A", "HDD", "raid5x4[A]").
	Name() string
	// UserPages is the host-visible capacity in 4 KiB pages.
	UserPages() int64
	// Ready reports whether the device currently answers the host.
	Ready() bool
	// NotifyReady registers fn to run every time the device transitions
	// back to answering the host after an outage.
	NotifyReady(fn func())
	// NotifyDown registers fn to run every time the host link drops.
	NotifyDown(fn func())
}

// Config tunes the block layer.
type Config struct {
	// MaxSegPages splits requests larger than this many pages.
	MaxSegPages int
	// Depth bounds sub-requests in flight at the device (NCQ depth).
	Depth int
	// PendingCap bounds requests waiting for dispatch; beyond it requests
	// are rejected as not-issued.
	PendingCap int
	// Timeout abandons requests that have not completed.
	Timeout sim.Duration
}

// DefaultConfig mirrors a stock Linux SATA setup: 512 KiB segments, NCQ 32,
// 30 s timeout.
func DefaultConfig() Config {
	return Config{MaxSegPages: 128, Depth: 32, PendingCap: 4096, Timeout: 30 * sim.Second}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MaxSegPages <= 0 || c.Depth <= 0 || c.PendingCap <= 0 || c.Timeout <= 0 {
		return fmt.Errorf("blockdev: all config values must be positive: %+v", c)
	}
	return nil
}

// Stats counts block-layer activity.
type Stats struct {
	Submitted int64
	Rejected  int64
	Completed int64
	Errored   int64
	TimedOut  int64
	Splits    int64
}

// Queue is the host block layer instance.
type Queue struct {
	k      *sim.Kernel
	dev    Device
	tracer *blktrace.Tracer
	cfg    Config

	nextID   uint64
	pending  []pendingSub // dispatch FIFO: live entries are pending[pendHead:]
	pendHead int
	inflight int
	stats    Stats
	obs      queueObs
	spans    *spanLog // nil unless RecordSpans was called

	pools *Pools
}

// Pools holds the request and device-completion free lists that queues
// draw their records from. The zero value is ready. Queues sharing one
// Pools must run on one kernel.
type Pools struct {
	reqs  pool.FreeList[Request]
	calls pool.FreeList[subCall]
}

// InUse returns the requests and device-completion records handed out
// and not yet returned.
func (p *Pools) InUse() (requests, calls int) { return p.reqs.InUse(), p.calls.InUse() }

// New builds a block layer over dev with pools of its own, recording
// events into tracer (which may be nil to disable tracing).
func New(k *sim.Kernel, dev Device, tracer *blktrace.Tracer, cfg Config) (*Queue, error) {
	return NewWithPools(k, dev, tracer, cfg, &Pools{})
}

// NewWithPools builds a block layer over dev that draws its recycled
// records from p, which other queues on the same kernel may share.
func NewWithPools(k *sim.Kernel, dev Device, tracer *blktrace.Tracer, cfg Config, p *Pools) (*Queue, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dev == nil {
		return nil, errors.New("blockdev: nil device")
	}
	return &Queue{k: k, dev: dev, tracer: tracer, cfg: cfg, pools: p}, nil
}

// Stats returns a snapshot of the counters.
func (q *Queue) Stats() Stats { return q.stats }

// Inflight returns sub-requests currently at the device.
func (q *Queue) Inflight() int { return q.inflight }

// PendingSubs returns sub-requests waiting for dispatch.
func (q *Queue) PendingSubs() int { return len(q.pending) - q.pendHead }

// NewRequest returns a zeroed request from the queue's pools, allocating
// one with cached callback closures on a miss. The request must be
// submitted to this queue with a non-nil Done; it is recycled
// automatically after Done returns.
func (q *Queue) NewRequest() *Request {
	r, fresh := q.pools.reqs.Get()
	if fresh {
		r.timeoutFn = func() { r.q.onTimeout(r) }
		r.doneEv = func() {
			r.Done(r)
			r.q.release(r)
		}
	}
	r.q = q
	return r
}

// release recycles a request. Advancing gen first makes every
// outstanding reference (pending ring entries after a timeout, late
// device completions) stale. Then only the fields a use can leave set
// are cleared, one by one, instead of copying a whole zero Request over
// it: remaining and timeout are always rewritten by Submit before they
// are read, and split rewrites every sub it uses. Data and Result are
// dropped so the pool keeps no caller's payload alive; buf stays.
func (q *Queue) release(r *Request) {
	r.gen++
	r.subs = r.subs[:0]
	r.ID, r.Op, r.LPN, r.Pages = 0, 0, 0, 0
	r.Data, r.Result = content.Data{}, content.Data{}
	r.Control, r.NotIssued, r.finished = false, false, false
	r.Queued, r.Completed = 0, 0
	r.Err, r.Done = nil, nil
	q.pools.reqs.Put(r)
}

// trace records one event when a tracer is attached. It inlines, so
// without a tracer the event is never built.
func (q *Queue) trace(act blktrace.Action, r *Request, sub int, lpn addr.LPN, pages int) {
	if q.tracer != nil {
		q.tracer.Record(blktrace.Event{At: q.k.Now(), Act: act, Op: r.Op.traceKind(), Req: r.ID, Sub: sub, LPN: lpn, Pages: pages})
	}
}

// Submit queues a request this queue's NewRequest handed out, with Done
// set. The request's Done callback fires exactly once; rejected requests
// complete immediately with ErrQueueFull and NotIssued set.
func (q *Queue) Submit(r *Request) {
	if r.q != q {
		panic("blockdev: request not from this queue's NewRequest")
	}
	if r.Op != OpFlush && r.Pages <= 0 {
		panic("blockdev: request with no pages")
	}
	if r.Op == OpWrite && r.Data.Pages() != r.Pages {
		panic("blockdev: write payload size mismatch")
	}
	if r.Done == nil {
		panic("blockdev: request with no Done callback")
	}
	q.nextID++
	r.ID = q.nextID
	r.Queued = q.k.Now()
	q.stats.Submitted++
	if q.PendingSubs() >= q.cfg.PendingCap {
		r.NotIssued = true
		r.Err = ErrQueueFull
		q.stats.Rejected++
		q.trace(blktrace.ActReject, r, -1, r.LPN, r.Pages)
		q.finish(r)
		return
	}
	q.trace(blktrace.ActQueue, r, -1, r.LPN, r.Pages)
	q.split(r)
	for i := range r.subs {
		s := &r.subs[i]
		q.trace(blktrace.ActSplit, r, s.idx, s.lpn, s.pages)
		q.pending = append(q.pending, pendingSub{r: r, idx: i, gen: r.gen})
	}
	r.remaining = len(r.subs)
	// A deadline past the kernel's horizon could never fire, so it is not
	// armed; r.timeout is then the zero Timer, whose Stop is a no-op.
	if deadline := q.k.Now().Add(q.cfg.Timeout); q.k.Beyond(deadline) {
		r.timeout = sim.Timer{}
	} else {
		r.timeout = q.k.At(deadline, r.timeoutFn)
	}
	q.pump()
}

func (q *Queue) split(r *Request) {
	r.subs = r.subs[:0]
	if r.Op == OpFlush {
		r.subs = append(r.subs, subRequest{idx: 0, lpn: r.LPN, pages: 0})
		return
	}
	seg := q.cfg.MaxSegPages
	for off := 0; off < r.Pages; off += seg {
		n := r.Pages - off
		if n > seg {
			n = seg
		}
		r.subs = append(r.subs, subRequest{idx: len(r.subs), lpn: r.LPN + addr.LPN(off), pages: n, off: off})
	}
	if len(r.subs) > 1 {
		q.stats.Splits += int64(len(r.subs) - 1)
		if r.Op == OpRead {
			r.buf = slices.Grow(r.buf[:0], r.Pages)[:r.Pages]
		}
	}
}

// popPending removes and returns the FIFO head. The consumed prefix is
// compacted away once it dominates the slice, so the ring's backing array
// reaches a steady size and then stops allocating.
func (q *Queue) popPending() pendingSub {
	e := q.pending[q.pendHead]
	q.pending[q.pendHead] = pendingSub{}
	q.pendHead++
	if q.pendHead == len(q.pending) {
		q.pending = q.pending[:0]
		q.pendHead = 0
	} else if q.pendHead >= 256 && q.pendHead*2 >= len(q.pending) {
		n := copy(q.pending, q.pending[q.pendHead:])
		for i := n; i < len(q.pending); i++ {
			q.pending[i] = pendingSub{}
		}
		q.pending = q.pending[:n]
		q.pendHead = 0
	}
	return e
}

// getCall pops (or allocates) a completion record aimed at sub idx of r.
func (q *Queue) getCall(r *Request, idx int) *subCall {
	c, fresh := q.pools.calls.Get()
	if fresh {
		c.cb = func(err error, result content.Data) {
			q, r, idx, gen := c.q, c.r, c.idx, c.gen
			c.r = nil
			q.pools.calls.Put(c)
			q.onSubDone(r, idx, gen, err, result)
		}
	}
	c.q, c.r, c.idx, c.gen = q, r, idx, r.gen
	return c
}

func (q *Queue) pump() {
	for q.inflight < q.cfg.Depth && q.pendHead < len(q.pending) {
		e := q.popPending()
		r := e.r
		if r.gen != e.gen || r.finished {
			continue // request timed out (or was recycled) while queued
		}
		s := &r.subs[e.idx]
		q.inflight++
		q.trace(blktrace.ActDispatch, r, s.idx, s.lpn, s.pages)
		var payload content.Data
		if r.Op == OpWrite {
			payload = r.Data.Slice(s.off, s.pages)
		}
		c := q.getCall(r, e.idx)
		q.dev.Submit(r.Op, s.lpn, s.pages, payload, c.cb)
	}
	q.obsSampleDepth()
}

func (q *Queue) onSubDone(r *Request, idx int, gen uint32, err error, result content.Data) {
	q.inflight--
	defer q.pump()
	if r.gen != gen || r.finished {
		return // stale completion after timeout (or recycle)
	}
	s := &r.subs[idx]
	if s.done {
		return
	}
	s.done = true
	if err != nil {
		q.trace(blktrace.ActError, r, s.idx, s.lpn, s.pages)
		if r.Err == nil {
			r.Err = err
		}
	} else {
		q.trace(blktrace.ActComplete, r, s.idx, s.lpn, s.pages)
		if r.Op == OpRead {
			if len(r.subs) == 1 {
				// Unsplit read: the device's lent result is forwarded;
				// Done runs inside its loan window.
				r.Result = result
			} else if result.CopyTo(r.buf[s.off:s.off+s.pages]) != s.pages {
				panic("blockdev: device answered a read with too few pages")
			}
		}
	}
	r.remaining--
	if r.remaining > 0 {
		return
	}
	r.timeout.Stop()
	if r.Err == nil && q.spans != nil {
		q.spans.add(r, q.k.Now())
	}
	if r.Op == OpRead && r.Err == nil && len(r.subs) > 1 {
		r.Result = content.Wrap(r.buf)
	}
	if r.Err != nil {
		q.stats.Errored++
	} else {
		q.stats.Completed++
		q.obsDone(r)
	}
	q.finish(r)
}

func (q *Queue) onTimeout(r *Request) {
	if r.finished {
		return
	}
	q.stats.TimedOut++
	r.Err = ErrTimeout
	q.trace(blktrace.ActTimeout, r, -1, r.LPN, r.Pages)
	// Outstanding subs are abandoned implicitly: pending ring entries and
	// late device completions both check finished (and gen, once the
	// request is recycled).
	q.finish(r)
}

func (q *Queue) finish(r *Request) {
	if r.finished {
		return
	}
	r.finished = true
	r.Completed = q.k.Now()
	// Completion callbacks run as their own event so that device callback
	// stacks unwind first.
	q.k.After(0, r.doneEv)
}
