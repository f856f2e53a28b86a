package blockdev

import (
	"cmp"
	"slices"

	"powerfail/internal/obs"
	"powerfail/internal/sim"
)

// queueObs holds one Queue's observability handles. The zero value is
// the disabled state: every handle is nil and nil handles no-op, so the
// hot path pays one nil check when observability is off. The request
// counters are not here: the registry reads them from Stats.
type queueObs struct {
	depth     obs.Marker // the inflight qdepth instant
	inflight  *obs.Gauge
	q2cRead   *obs.Histogram
	q2cWrite  *obs.Histogram
	q2cFlush  *obs.Histogram
	q2cCtrl   *obs.Histogram
	lastDepth int
	sampled   bool
}

// Observe attaches the queue to an observability scope. Handles are
// resolved once here, and the addresses of the Stats counts are
// registered for the registry to read; several queues observing into
// the same scope (the fleet's member queues) share metrics by name, and
// their counts add up. A disabled scope is a no-op.
func (q *Queue) Observe(sc obs.Scope) {
	if !sc.Enabled() {
		return
	}
	st := &q.stats
	sc.Count("submitted", &st.Submitted)
	sc.Count("rejected", &st.Rejected)
	sc.Count("completed", &st.Completed)
	sc.Count("errored", &st.Errored)
	sc.Count("timed_out", &st.TimedOut)
	sc.Count("splits", &st.Splits)
	q.obs = queueObs{
		depth:    sc.Marker(obs.KindQueueDepth, "inflight"),
		inflight: sc.Gauge("inflight"),
		q2cRead:  sc.Histogram("q2c_read_ns"),
		q2cWrite: sc.Histogram("q2c_write_ns"),
		q2cFlush: sc.Histogram("q2c_flush_ns"),
		q2cCtrl:  sc.Histogram("q2c_control_ns"),
	}
}

// obsSampleDepth records the device-inflight depth when it changed since
// the last sample: a gauge point always, a trace event when tracing is
// on.
func (q *Queue) obsSampleDepth() {
	o := &q.obs
	if o.inflight == nil && !o.depth.On() {
		return
	}
	if o.sampled && q.inflight == o.lastDepth {
		return
	}
	o.sampled = true
	o.lastDepth = q.inflight
	o.inflight.Set(int64(q.inflight))
	o.depth.Instant(q.k.Now(), int64(q.inflight))
}

// obsDone records the queue-to-complete latency of a request that
// finished without error. Control (verification) traffic gets its own
// histogram so workload latency quantiles stay clean.
func (q *Queue) obsDone(r *Request) {
	o := &q.obs
	if o.q2cRead == nil {
		return
	}
	d := int64(q.k.Now().Sub(r.Queued))
	switch {
	case r.Control:
		o.q2cCtrl.Observe(d)
	case r.Op == OpRead:
		o.q2cRead.Observe(d)
	case r.Op == OpWrite:
		o.q2cWrite.Observe(d)
	default:
		o.q2cFlush.Observe(d)
	}
}

// spanLog holds the queue-to-complete interval of every request
// submitted since the last flush whose every sub-request completed
// without error: the requests blktrace.Assemble would call Complete over
// the events of the same window. Its buffer is reused across flushes.
type spanLog struct {
	since uint64 // requests with an ID up to this were submitted before the last flush
	recs  []blkSpan
	mark  [OpFlush + 1]obs.Marker // one blkio marker per direction
}

type blkSpan struct {
	id    uint64
	start sim.Time
	dur   sim.Duration
	op    Op
}

func (l *spanLog) add(r *Request, now sim.Time) {
	if r.ID > l.since {
		l.recs = append(l.recs, blkSpan{id: r.ID, start: r.Queued, dur: now.Sub(r.Queued), op: r.Op})
	}
}

// RecordSpans makes the queue keep a blkio span for every request
// submitted from now on that completes without error, until FlushSpans
// hands it on into sc. A queue nobody flushes must not record: it keeps
// every span.
func (q *Queue) RecordSpans(sc obs.Scope) {
	if q.spans != nil {
		return
	}
	l := &spanLog{since: q.nextID}
	for op := range l.mark {
		l.mark[op] = sc.Marker(obs.KindBlockIO, Op(op).traceKind().String())
	}
	q.spans = l
}

// FlushSpans records the kept spans into RecordSpans' scope as
// KindBlockIO spans named by the request direction ("R", "W", "F") with
// the request ID as value, in request-ID order, and starts a new window:
// a request submitted before this call records no span, even if it
// completes later. A queue without RecordSpans records nothing.
func (q *Queue) FlushSpans() {
	l := q.spans
	if l == nil {
		return
	}
	slices.SortFunc(l.recs, cmpSpanID) // completion order differs from submission order
	for _, s := range l.recs {
		l.mark[s.op].Span(s.start, s.dur, int64(s.id))
	}
	l.recs = l.recs[:0]
	l.since = q.nextID
}

func cmpSpanID(a, b blkSpan) int { return cmp.Compare(a.id, b.id) }
