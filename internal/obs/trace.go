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

// Trace is a bounded ring buffer of events. When full it drops the
// oldest event and counts the drop; because recording order is fixed by
// the single-threaded kernel, the surviving window is deterministic.
type Trace struct {
	buf     []Event
	start   int
	n       int
	dropped uint64
}

// NewTrace returns a ring holding at most capacity events.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Trace{buf: make([]Event, capacity)}
}

// Record appends e, evicting the oldest event if the ring is full.
// Nil-safe.
func (t *Trace) Record(e Event) {
	if t == nil {
		return
	}
	if t.n == len(t.buf) {
		t.buf[t.start] = e
		t.start = (t.start + 1) % len(t.buf)
		t.dropped++
		return
	}
	t.buf[(t.start+t.n)%len(t.buf)] = e
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
	head := len(t.buf) - t.start
	if t.n <= head {
		copy(out, t.buf[t.start:t.start+t.n])
	} else {
		copy(out, t.buf[t.start:])
		copy(out[head:], t.buf[:t.n-head])
	}
	return out
}
