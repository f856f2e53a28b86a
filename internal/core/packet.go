// Package core implements the software part of the paper's test platform:
// the Scheduler that commands the hardware to inject power faults, the IO
// Generator that issues data packets, and the Analyzer that decides — from
// each request's block-layer completion plus checksum comparison — whether
// each request suffered a data failure, a false write-acknowledge (FWA),
// or an IO error. A Runner sequences whole experiments: workload, fault
// cycles (cut, discharge, restore, recovery), and verification passes.
package core

import (
	"fmt"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/sim"
	"powerfail/internal/workload"
)

// FailureKind classifies a request after verification, following the
// paper's Section III-B taxonomy.
type FailureKind int

// Failure kinds.
const (
	FailNone FailureKind = iota
	// FailData: completed=1, notApplied=0, checksum mismatch — the drive
	// acknowledged the write and the address holds neither the written
	// nor the previous content.
	FailData
	// FailFWA: completed=1, notApplied=1 — the drive acknowledged the
	// write but the address still holds the pre-request content.
	FailFWA
	// FailIOError: completed=0 — the request was issued while the drive
	// was unavailable (or timed out).
	FailIOError
)

// String implements fmt.Stringer.
func (f FailureKind) String() string {
	switch f {
	case FailNone:
		return "none"
	case FailData:
		return "data-failure"
	case FailFWA:
		return "fwa"
	case FailIOError:
		return "io-error"
	default:
		return fmt.Sprintf("FailureKind(%d)", int(f))
	}
}

// Packet is the paper's data packet (Fig. 2): the payload plus a header
// carrying size, destination address, queue/completion times, the three
// checksums (initial = content before the request, data = written payload,
// final = content read back after the fault), and the outcome flags.
type Packet struct {
	ReqID uint64
	Op    workload.Op
	LPN   addr.LPN
	Pages int

	// Want is the written payload (its Sum is the "data checksum").
	Want content.Data
	// Prev is the per-page content of the target address prior to issuing
	// (the "initial checksum"), captured from the analyzer's shadow.
	Prev []content.Fingerprint

	QueueTime    sim.Time
	CompleteTime sim.Time

	Err       error
	NotIssued bool
	// Completed is the paper's btt "completed" flag: all block-layer
	// sub-requests reached the complete state before the timeout, which
	// the block layer reports as a nil request error.
	Completed bool

	Verified bool
	FailedAs FailureKind
	// FaultIdx is the fault cycle during which the packet was classified.
	FaultIdx int

	// Pool bookkeeping: pooled marks packets owned by the analyzer's free
	// list; released guards against double-free when a test (or recheck)
	// touches a packet after its terminal classification.
	pooled   bool
	released bool
}

// IsRead reports whether the packet is a read request.
func (p *Packet) IsRead() bool { return p.Op == workload.OpRead }

// prevEqual reports whether d holds the packet's initial content.
func (p *Packet) prevEqual(d content.Data) bool {
	if d.Pages() != p.Pages {
		return false
	}
	for i := 0; i < p.Pages; i++ {
		if d.Page(i) != p.Prev[i] {
			return false
		}
	}
	return true
}

// Failures tallies the Section III-B failure kinds. The experiment
// totals, every fault cycle and every array member keep one each.
type Failures struct {
	DataFailures int `json:"data_failures"`
	FWA          int `json:"fwa"`
	IOErrors     int `json:"io_errors"`
}

// add charges one failure of kind k; FailNone charges nothing.
func (f *Failures) add(k FailureKind) {
	switch k {
	case FailData:
		f.DataFailures++
	case FailFWA:
		f.FWA++
	case FailIOError:
		f.IOErrors++
	}
}

// DataLosses returns data failures plus FWAs: the paper's combined
// "data failure / data loss" count.
func (f Failures) DataLosses() int { return f.DataFailures + f.FWA }

// Counters aggregates the analyzer's findings.
type Counters struct {
	Issued    int `json:"issued"`
	Reads     int `json:"reads"`
	Writes    int `json:"writes"`
	Completed int `json:"completed"`
	Errored   int `json:"errored"`
	NotIssued int `json:"not_issued"`

	Failures
	OKVerified      int `json:"ok_verified"`
	LateCorruptions int `json:"late_corruptions"` // verified-then-corrupted, caught on recheck
}
