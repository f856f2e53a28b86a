package obs

import (
	"fmt"
	"math"
	"slices"

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

// record is how a Trace stores one Event: 32 bytes and no pointers, so
// the ring's chunks are never scanned by the garbage collector. The
// component and name are indices into the Trace's string tables.
type record struct {
	at    sim.Time
	dur   sim.Duration
	value int64
	kind  Kind
	comp  uint16
	name  uint32
}

// traceChunk is the number of records in one storage chunk of a Trace:
// 512 × 32 B = 16 KiB, a small-object allocation that the runtime serves
// from its size classes instead of zeroing a large span.
const traceChunk = 512

// Trace is a bounded ring buffer of events. When full it drops the
// oldest event and counts the drop; because recording order is fixed by
// the single-threaded kernel, the surviving window is deterministic.
//
// Storage grows by fixed-size chunks as events arrive, never past the
// capacity, and a chunk is never copied or reallocated: ring slot i lives
// at chunks[i/traceChunk][i%traceChunk]. Until the ring is full, start is
// 0 and slots fill in order, so only a run that records capacity events
// pays for capacity storage.
//
// Component and event names are interned into per-trace tables: a
// record carries their indices, and Events turns them back into strings.
// The tables only grow; a name stays after the ring drops its events.
type Trace struct {
	chunks   [][]record
	capacity int
	start    int
	n        int
	dropped  uint64

	comps   []string          // component table; few entries, searched linearly
	names   []string          // name table
	nameIDs map[string]uint32 // index into names
}

// NewTrace returns a ring retaining at most capacity events (0 or less
// means DefaultTraceCap). It allocates the header and an empty name
// index; storage is added one chunk at a time as Record fills it.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Trace{capacity: capacity, nameIDs: map[string]uint32{}}
}

// compID interns a component name. Components are the scopes a run
// builds, a handful fixed by the code, so the table is scanned.
func (t *Trace) compID(comp string) uint16 {
	if i := slices.Index(t.comps, comp); i >= 0 {
		return uint16(i)
	}
	if len(t.comps) > math.MaxUint16 {
		panic("obs: more than 65536 trace components")
	}
	t.comps = append(t.comps, comp)
	return uint16(len(t.comps) - 1)
}

// nameID interns an event name.
func (t *Trace) nameID(name string) uint32 {
	if id, ok := t.nameIDs[name]; ok {
		return id
	}
	id := uint32(len(t.names))
	t.names = append(t.names, name)
	t.nameIDs[name] = id
	return id
}

// slot returns ring slot i.
func (t *Trace) slot(i int) *record {
	return &t.chunks[i/traceChunk][i%traceChunk]
}

// Record appends e, evicting the oldest event if the ring is full. It
// interns e's component and name on every call; the instrumented layers
// record through a Scope or a Marker, which resolve them once. Nil-safe.
func (t *Trace) Record(e Event) {
	if t == nil {
		return
	}
	t.record(record{at: e.At, dur: e.Dur, value: e.Value, kind: e.Kind, comp: t.compID(e.Comp), name: t.nameID(e.Name)})
}

// record stores r, evicting the oldest record if the ring is full.
func (t *Trace) record(r record) {
	if t.n == t.capacity {
		*t.slot(t.start) = r
		if t.start++; t.start == t.capacity {
			t.start = 0
		}
		t.dropped++
		return
	}
	// Not full, so start is 0 and the next free slot is n.
	if t.n%traceChunk == 0 {
		t.chunks = append(t.chunks, make([]record, min(traceChunk, t.capacity-t.n)))
	}
	*t.slot(t.n) = r
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
	out := make([]Event, 0, t.n)
	head := min(t.n, t.capacity-t.start)
	out = t.appendSlots(out, t.start, head)
	return t.appendSlots(out, 0, t.n-head)
}

// appendSlots appends the events of n ring slots from slot lo on.
func (t *Trace) appendSlots(dst []Event, lo, n int) []Event {
	for i := lo; i < lo+n; i++ {
		r := t.slot(i)
		dst = append(dst, Event{At: r.at, Dur: r.dur, Kind: r.kind, Comp: t.comps[r.comp], Name: t.names[r.name], Value: r.value})
	}
	return dst
}

// Marker records trace events of one kind and name from one component.
// Its scope resolves the component and the name once, so a hot path
// that records the same event over and over (a queue-depth sample, a
// block-IO span) stores a record with no lookup. The zero Marker, which
// a scope with tracing off hands out, drops every event.
type Marker struct {
	tr   *Trace
	kind Kind
	comp uint16
	name uint32
}

// On reports whether the marker's events are kept.
func (m Marker) On() bool { return m.tr != nil }

// Instant records a zero-duration event at sim time at.
func (m Marker) Instant(at sim.Time, value int64) {
	if m.tr == nil {
		return
	}
	m.tr.record(record{at: at, value: value, kind: m.kind, comp: m.comp, name: m.name})
}

// Span records an event covering [at, at+dur).
func (m Marker) Span(at sim.Time, dur sim.Duration, value int64) {
	if m.tr == nil {
		return
	}
	m.tr.record(record{at: at, dur: dur, value: value, kind: m.kind, comp: m.comp, name: m.name})
}
