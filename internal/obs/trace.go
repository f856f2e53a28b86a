package obs

import (
	"fmt"

	"powerfail/internal/sim"
)

// Kind classifies a trace event. The taxonomy is deliberately small:
// each kind fixes how Name/Value/Dur are interpreted and how the Chrome
// exporter renders the event.
type Kind uint8

// Event kinds.
const (
	// KindInstant is a generic point event; Value is kind-specific.
	KindInstant Kind = iota
	// KindSpan is a generic duration event covering [At, At+Dur).
	KindSpan
	// KindPower is a power edge on one fault-domain tree node: Name is
	// the node, Value is 1 for a cut and 0 for a restore.
	KindPower
	// KindState is a state-machine transition: Name is "entity old>new".
	KindState
	// KindTxn is transaction lifecycle: Name is "begin"/"commit"/"abort",
	// Value is the transaction id; commits are spans from begin to ack.
	KindTxn
	// KindScan is a recovery scan: Value is the number of log pages read.
	KindScan
	// KindQueueDepth is a queue-depth sample: Value is the depth.
	KindQueueDepth
	// KindBlockIO is one completed block-layer request rendered as a
	// queue-to-complete span: Name is the op kind, Value the request id.
	KindBlockIO
)

var kindNames = [...]string{
	KindInstant:    "instant",
	KindSpan:       "span",
	KindPower:      "power",
	KindState:      "state",
	KindTxn:        "txn",
	KindScan:       "scan",
	KindQueueDepth: "qdepth",
	KindBlockIO:    "blkio",
}

// String returns the stable lower-case name the Chrome export uses as
// the event's category.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one typed trace record on the simulated clock.
type Event struct {
	At    sim.Time     `json:"at"`
	Dur   sim.Duration `json:"dur,omitempty"`
	Kind  Kind         `json:"kind"`
	Comp  string       `json:"comp"`
	Name  string       `json:"name"`
	Value int64        `json:"value"`
}

// traceChunk is the number of events in one storage chunk of a Trace:
// 256 × 64 B = 16 KiB, a small-object allocation that the runtime serves
// from its size classes instead of zeroing a large span.
const traceChunk = 256

// Trace is a bounded ring buffer of events. When full it drops the
// oldest event and counts the drop; because recording order is fixed by
// the single-threaded kernel, the surviving window is deterministic.
//
// Storage grows by fixed-size chunks as events arrive, never past the
// capacity, and a chunk is never copied or reallocated: ring slot i lives
// at chunks[i/traceChunk][i%traceChunk]. Until the ring is full, start is
// 0 and slots fill in order, so only a run that records capacity events
// pays for capacity storage.
type Trace struct {
	chunks   [][]Event
	capacity int
	start    int
	n        int
	dropped  uint64
}

// NewTrace returns a ring retaining at most capacity events (0 or less
// means DefaultTraceCap). It allocates only the header; storage is
// added one chunk at a time as Record fills it.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Trace{capacity: capacity}
}

// slot returns ring slot i.
func (t *Trace) slot(i int) *Event {
	return &t.chunks[i/traceChunk][i%traceChunk]
}

// Record appends e, evicting the oldest event if the ring is full.
// Nil-safe.
func (t *Trace) Record(e Event) {
	if t == nil {
		return
	}
	if t.n == t.capacity {
		*t.slot(t.start) = e
		if t.start++; t.start == t.capacity {
			t.start = 0
		}
		t.dropped++
		return
	}
	// Not full, so start is 0 and the next free slot is n.
	if t.n%traceChunk == 0 {
		t.chunks = append(t.chunks, make([]Event, min(traceChunk, t.capacity-t.n)))
	}
	*t.slot(t.n) = e
	t.n++
}

// Len returns the number of retained events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns how many events were evicted.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the retained events oldest-first as a fresh slice.
func (t *Trace) Events() []Event {
	if t == nil || t.n == 0 {
		return nil
	}
	out := make([]Event, t.n)
	head := min(t.n, t.capacity-t.start)
	t.copySlots(out, t.start, head)
	t.copySlots(out[head:], 0, t.n-head)
	return out
}

// copySlots copies n ring slots from slot lo on into dst.
func (t *Trace) copySlots(dst []Event, lo, n int) {
	for n > 0 {
		c := t.chunks[lo/traceChunk][lo%traceChunk:]
		k := copy(dst[:n], c)
		dst, lo, n = dst[k:], lo+k, n-k
	}
}
