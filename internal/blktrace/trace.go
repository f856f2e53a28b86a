// Package blktrace reimplements, inside the simulation, the IO tracing
// pipeline the paper builds on: blktrace-style block-layer events and a
// btt-style per-IO assembler (the paper modified btt's per-IO dump to
// track sub-request completion). On real hardware the trace is the
// host's only view of whether a request "completed" — all of its
// block-layer sub-requests reached the C state before the 30 s timeout.
// Inside the simulation the block layer reports that flag directly as a
// nil request error, and its completed requests reach the Chrome trace
// as blkio spans. The host queue records these events only when handed a
// Tracer, which the blockdev tests do: Assemble re-derives both views
// from the events, and those tests pin them equal on every request.
package blktrace

import (
	"powerfail/internal/addr"
	"powerfail/internal/sim"
)

// Action identifies a block-layer event, mirroring blktrace's single-letter
// actions.
type Action byte

// Trace actions.
const (
	ActQueue    Action = 'Q' // request queued at the block layer
	ActSplit    Action = 'X' // request split into sub-requests
	ActDispatch Action = 'D' // sub-request dispatched to the device
	ActComplete Action = 'C' // sub-request completed by the device
	ActError    Action = 'E' // sub-request failed (device error)
	ActTimeout  Action = 'T' // request abandoned by the 30 s timer
	ActReject   Action = 'R' // request rejected before queueing (not issued)
)

// String implements fmt.Stringer.
func (a Action) String() string { return string(rune(a)) }

// OpKind is the request direction.
type OpKind byte

// Operations.
const (
	OpRead  OpKind = 'R'
	OpWrite OpKind = 'W'
	OpFlush OpKind = 'F'
)

// String implements fmt.Stringer. The three operations return constant
// strings, so naming a request's direction (the host queue's blkio span
// flush does it once per request) allocates nothing.
func (o OpKind) String() string {
	switch o {
	case OpRead:
		return "R"
	case OpWrite:
		return "W"
	case OpFlush:
		return "F"
	}
	return string(rune(o))
}

// Event is one block-layer trace record.
type Event struct {
	At    sim.Time
	Act   Action
	Op    OpKind
	Req   uint64 // request identifier
	Sub   int    // sub-request index within the request, -1 for whole-request events
	LPN   addr.LPN
	Pages int
}

// Tracer accumulates events. It is append-only; its owner folds the
// stream (Assemble) and Resets it.
type Tracer struct {
	events []Event
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Record appends an event.
func (t *Tracer) Record(e Event) { t.events = append(t.events, e) }

// Len returns the number of recorded events.
func (t *Tracer) Len() int { return len(t.events) }

// Events returns the full stream (shared slice; callers must not modify).
func (t *Tracer) Events() []Event { return t.events }

// Reset discards all recorded events.
func (t *Tracer) Reset() { t.events = t.events[:0] }
