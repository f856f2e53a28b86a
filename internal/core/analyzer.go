package core

import (
	"slices"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/pool"
	"powerfail/internal/sim"
	"powerfail/internal/workload"
)

// Analyzer is the failure-detection component. It shadows the expected
// content of every written page, captures each packet's initial checksum
// at issue time, records each request's completion state, and classifies
// packets after each fault by reading the drive back.
type Analyzer struct {
	k *sim.Kernel

	// shadow is the newest expected content of every written page; a
	// zero fingerprint means never written.
	shadow  addr.Table[content.Fingerprint]
	pending []*Packet // completed or errored, awaiting verification
	recent  []*Packet // verified clean, rechecked while young
	cands   []*Packet // VerifyCandidates' result, reused every fault cycle

	recheckWindow sim.Duration
	counts        Counters
	perFault      []FaultOutcome

	// attribute appends to dst the member indices of a composite device
	// that a failed packet's LPN range maps to; nil on single-device
	// platforms. members is the scratch it appends into.
	attribute   func(dst []int, lpn addr.LPN, pages int) []int
	members     []int
	memberFails []Failures

	// pktFree recycles packets whose verification story has ended (failed
	// terminally, aged out of the recheck window, or rejected by the host
	// queue). Experiments are single-threaded, so no locking.
	pktFree pool.FreeList[Packet]
}

// FaultOutcome is the per-fault-cycle failure breakdown.
type FaultOutcome struct {
	FaultAt sim.Time `json:"fault_at_ns"`
	Failures
}

// recheckWindow is the experiments' recheck window: how long a verified
// packet remains subject to re-verification (captures corruption of
// previously written data by later faults).
const recheckWindow = 2 * sim.Second

// NewAnalyzer builds an analyzer whose verified packets are rechecked
// while younger than window; experiments pass recheckWindow.
func NewAnalyzer(k *sim.Kernel, window sim.Duration) *Analyzer {
	return &Analyzer{
		k:             k,
		recheckWindow: window,
	}
}

// Counters returns the current totals.
func (a *Analyzer) Counters() Counters { return a.counts }

// SetAttribution installs a composite-device failure attributor over n
// members: every failure classified from here on is also charged to the
// members fn appends for the packet's address range.
func (a *Analyzer) SetAttribution(n int, fn func(dst []int, lpn addr.LPN, pages int) []int) {
	a.attribute = fn
	a.memberFails = make([]Failures, n)
}

// MemberFailures returns the per-member attributed failures (nil without
// an attributor).
func (a *Analyzer) MemberFailures() []Failures {
	if a.memberFails == nil {
		return nil
	}
	out := make([]Failures, len(a.memberFails))
	copy(out, a.memberFails)
	return out
}

func (a *Analyzer) chargeMembers(pkt *Packet, kind FailureKind) {
	if a.attribute == nil {
		return
	}
	a.members = a.attribute(a.members[:0], pkt.LPN, pkt.Pages)
	for _, m := range a.members {
		if m >= 0 && m < len(a.memberFails) {
			a.memberFails[m].add(kind)
		}
	}
}

// PerFault returns the per-cycle breakdown.
func (a *Analyzer) PerFault() []FaultOutcome { return a.perFault }

// BeginFault opens a new fault-cycle record and returns its index.
func (a *Analyzer) BeginFault(at sim.Time) int {
	a.perFault = append(a.perFault, FaultOutcome{FaultAt: at})
	return len(a.perFault) - 1
}

// newPacket pops a recycled packet (or allocates one), reset and ready to
// fill. The Prev backing array survives recycling.
func (a *Analyzer) newPacket() *Packet {
	pkt, _ := a.pktFree.Get()
	*pkt = Packet{pooled: true, Prev: pkt.Prev[:0]}
	return pkt
}

// release retires a packet whose verification story has ended: it joins
// the free list. Idempotent, so a recheck or test touching a terminally
// classified packet cannot double-free it.
func (a *Analyzer) release(pkt *Packet) {
	if !pkt.pooled || pkt.released {
		return
	}
	pkt.released = true
	a.pktFree.Put(pkt)
}

// OnIssue registers a submitted workload request; the packet direction
// is taken from the request itself. For writes it captures the initial
// (pre-request) checksums and advances the shadow expectation, so
// overlapping writes chain correctly (WAW sequences). The caller keeps
// the returned packet and hands it to OnComplete.
func (a *Analyzer) OnIssue(req *blockdev.Request) *Packet {
	pkt := a.newPacket()
	pkt.ReqID = req.ID
	pkt.LPN = req.LPN
	pkt.Pages = req.Pages
	pkt.QueueTime = req.Queued
	a.counts.Issued++
	if req.Op == blockdev.OpWrite {
		pkt.Op = workload.OpWrite
		a.counts.Writes++
		pkt.Want = req.Data
		prev := slices.Grow(pkt.Prev[:0], req.Pages)
		for i := 0; i < req.Pages; i++ {
			fp := a.shadow.Ref(req.LPN + addr.LPN(i))
			prev = append(prev, *fp)
			*fp = req.Data.Page(i)
		}
		pkt.Prev = prev
	} else {
		pkt.Op = workload.OpRead
		a.counts.Reads++
	}
	return pkt
}

// OnComplete records the host-visible completion of the workload request
// OnIssue turned into pkt.
func (a *Analyzer) OnComplete(pkt *Packet, req *blockdev.Request) {
	pkt.CompleteTime = req.Completed
	pkt.Err = req.Err
	pkt.NotIssued = req.NotIssued
	// The paper's "completed" flag: every sub-request reached C before the
	// timeout. The block layer sets Err for rejects, timeouts and failed
	// sub-requests, so a nil Err is exactly that.
	pkt.Completed = req.Err == nil
	if req.Err == nil {
		a.counts.Completed++
	} else {
		a.counts.Errored++
	}
	if req.NotIssued {
		// Never reached the drive; tracked separately from IO errors. The
		// packet is never verified, so it can be recycled right away.
		a.counts.NotIssued++
		pkt.Verified = true
		a.release(pkt)
		return
	}
	a.pending = append(a.pending, pkt)
}

// VerifyCandidates returns the packets to verify after a fault: all
// unverified packets plus recently verified ones (recheck catches paired-
// page corruption of previously written data). The pending and recent
// sets are rebuilt by the Classify calls that follow. The returned slice
// is the analyzer's and is reused by the next call.
func (a *Analyzer) VerifyCandidates(now sim.Time) []*Packet {
	out := append(a.cands[:0], a.pending...)
	a.pending = a.pending[:0]
	for _, pkt := range a.recent {
		if now.Sub(pkt.CompleteTime) <= a.recheckWindow && pkt.FailedAs == FailNone {
			out = append(out, pkt)
		} else {
			// Older or already-failed packets age out of the recheck set
			// for good; recycle them.
			a.release(pkt)
		}
	}
	a.recent = a.recent[:0]
	a.cands = out
	return out
}

// Classify applies the Section III-B rules to one packet given the
// content read back from the drive. faultIdx attributes the failure to a
// fault cycle; pass obs with zero pages for read packets (no comparison).
func (a *Analyzer) Classify(pkt *Packet, obs content.Data, faultIdx int) FailureKind {
	outcome := a.classify(pkt, obs)
	first := !pkt.Verified
	pkt.Verified = true
	switch {
	case outcome == FailNone:
		if first {
			a.counts.OKVerified++
		}
		if !pkt.released {
			a.recent = append(a.recent, pkt)
		}
	case pkt.FailedAs == FailNone:
		// A packet is charged once, for the first failure it shows.
		pkt.FailedAs = outcome
		pkt.FaultIdx = faultIdx
		a.counts.add(outcome)
		a.fault(faultIdx).add(outcome)
		a.chargeMembers(pkt, outcome)
		if !first && outcome != FailIOError {
			a.counts.LateCorruptions++
		}
	}
	// Re-synchronise the shadow with observed reality so later initial
	// checksums reflect what is actually on the media. Pages already
	// re-expected by a later (still unverified) write are left alone.
	if pkt.Op == workload.OpWrite && obs.Pages() == pkt.Pages && outcome != FailNone {
		for i := 0; i < pkt.Pages; i++ {
			if fp := a.shadow.Ref(pkt.LPN + addr.LPN(i)); *fp == pkt.Want.Page(i) {
				*fp = obs.Page(i)
			}
		}
	}
	if outcome != FailNone {
		// Terminal classification: the packet never re-enters the recheck
		// set (counting is idempotent per packet), so recycle it.
		a.release(pkt)
	}
	return outcome
}

func (a *Analyzer) classify(pkt *Packet, obs content.Data) FailureKind {
	if !pkt.Completed {
		return FailIOError
	}
	if pkt.Op == workload.OpRead {
		return FailNone
	}
	if obs.Pages() != pkt.Pages {
		return FailData
	}
	if obs.Equal(pkt.Want) {
		return FailNone
	}
	// The address may legitimately hold newer data: a later write (WAW
	// sequences) supersedes this packet. If the observed content matches
	// the newest expectation for every page, nothing was lost.
	matchesNewest := true
	for i := 0; i < pkt.Pages; i++ {
		if obs.Page(i) != a.shadow.Get(pkt.LPN+addr.LPN(i)) {
			matchesNewest = false
			break
		}
	}
	if matchesNewest {
		return FailNone
	}
	if pkt.prevEqual(obs) {
		return FailFWA
	}
	return FailData
}

func (a *Analyzer) fault(idx int) *FaultOutcome {
	if idx < 0 || idx >= len(a.perFault) {
		a.perFault = append(a.perFault, FaultOutcome{FaultAt: a.k.Now()})
		return &a.perFault[len(a.perFault)-1]
	}
	return &a.perFault[idx]
}
