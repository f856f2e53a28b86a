package core

import (
	"errors"
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/sim"
)

func newAnalyzer() (*sim.Kernel, *Analyzer) {
	k := sim.New()
	return k, NewAnalyzer(k, recheckWindow)
}

// issueWrite registers a synthetic completed write packet and drains it
// out of the pending set, mirroring the runner's VerifyCandidates flow.
func issueWrite(a *Analyzer, id uint64, lpn int64, data content.Data) *Packet {
	req := &blockdev.Request{ID: id, Op: blockdev.OpWrite, LPN: addr.LPN(lpn), Pages: data.Pages(), Data: data}
	pkt := a.OnIssue(req)
	a.OnComplete(pkt, req)
	a.pending = a.pending[:0]
	return pkt
}

func TestClassifyOK(t *testing.T) {
	_, a := newAnalyzer()
	d := content.Make(1, 2, 3)
	pkt := issueWrite(a, 1, 0, d)
	if got := a.Classify(pkt, d, 0); got != FailNone {
		t.Fatalf("classify = %v", got)
	}
	if a.Counters().OKVerified != 1 {
		t.Fatal("OK not counted")
	}
}

func TestClassifyFWA(t *testing.T) {
	_, a := newAnalyzer()
	prev := content.Make(7, 8)
	pkt0 := issueWrite(a, 1, 0, prev)
	a.Classify(pkt0, prev, 0)

	newer := content.Make(9, 10)
	pkt := issueWrite(a, 2, 0, newer)
	// The drive still holds the previous content: FWA.
	if got := a.Classify(pkt, prev, 1); got != FailFWA {
		t.Fatalf("classify = %v, want FWA", got)
	}
	c := a.Counters()
	if c.FWA != 1 || c.DataFailures != 0 {
		t.Fatalf("counters %+v", c)
	}
}

func TestClassifyDataFailure(t *testing.T) {
	_, a := newAnalyzer()
	pkt := issueWrite(a, 1, 0, content.Make(1, 2))
	garbage := content.Make(0xdead, 0xbeef)
	if got := a.Classify(pkt, garbage, 0); got != FailData {
		t.Fatalf("classify = %v, want data failure", got)
	}
}

func TestClassifyPartialFlushIsDataFailure(t *testing.T) {
	_, a := newAnalyzer()
	prev := content.Make(1, 2)
	p0 := issueWrite(a, 1, 0, prev)
	a.Classify(p0, prev, 0)
	want := content.Make(3, 4)
	pkt := issueWrite(a, 2, 0, want)
	// One page flushed, one reverted: neither all-new nor all-old.
	mixed := content.Make(3, 2)
	if got := a.Classify(pkt, mixed, 1); got != FailData {
		t.Fatalf("classify = %v, want data failure", got)
	}
}

func TestClassifyIOError(t *testing.T) {
	_, a := newAnalyzer()
	req := &blockdev.Request{ID: 1, Op: blockdev.OpWrite, LPN: 0, Pages: 1, Data: content.Make(1), Err: errors.New("x")}
	pkt := a.OnIssue(req)
	a.OnComplete(pkt, req) // the request error alone marks it incomplete
	if got := a.Classify(pkt, content.Data{}, 0); got != FailIOError {
		t.Fatalf("classify = %v, want io error", got)
	}
}

func TestClassifyReadNeverDataFailure(t *testing.T) {
	_, a := newAnalyzer()
	req := &blockdev.Request{ID: 1, Op: blockdev.OpRead, LPN: 0, Pages: 4}
	pkt := a.OnIssue(req)
	a.OnComplete(pkt, req)
	if got := a.Classify(pkt, content.Data{}, 0); got != FailNone {
		t.Fatalf("read classified %v", got)
	}
}

// TestClassifySupersededWAW: the first write of a WAW pair is not a
// failure when the address holds the second write's data.
func TestClassifySupersededWAW(t *testing.T) {
	_, a := newAnalyzer()
	d1 := content.Make(0x11)
	d2 := content.Make(0x22)
	w1 := issueWrite(a, 1, 0, d1)
	w2 := issueWrite(a, 2, 0, d2)
	if got := a.Classify(w1, d2, 0); got != FailNone {
		t.Fatalf("superseded write classified %v", got)
	}
	if got := a.Classify(w2, d2, 0); got != FailNone {
		t.Fatalf("surviving write classified %v", got)
	}
}

// TestClassifyWAWBothLost: both writes of a lost pair are counted, the
// first as FWA (address holds its pre-image) and the second as a data
// failure (holds neither its pre-image nor its payload).
func TestClassifyWAWBothLost(t *testing.T) {
	_, a := newAnalyzer()
	p0 := content.Make(0x01)
	base := issueWrite(a, 1, 0, p0)
	a.Classify(base, p0, 0)

	d1, d2 := content.Make(0x11), content.Make(0x22)
	w1 := issueWrite(a, 2, 0, d1)
	w2 := issueWrite(a, 3, 0, d2)
	if got := a.Classify(w1, p0, 1); got != FailFWA {
		t.Fatalf("w1 = %v, want FWA", got)
	}
	if got := a.Classify(w2, p0, 1); got != FailData {
		t.Fatalf("w2 = %v, want data failure", got)
	}
}

func TestPrevCaptureChains(t *testing.T) {
	_, a := newAnalyzer()
	d1, d2 := content.Make(0x11), content.Make(0x22)
	w1 := issueWrite(a, 1, 0, d1)
	w2 := issueWrite(a, 2, 0, d2)
	if w1.Prev[0] != content.Zero {
		t.Fatal("first write's prev should be Zero")
	}
	if w2.Prev[0] != d1.Page(0) {
		t.Fatal("second write's prev should be the first write's data")
	}
}

func TestNotIssuedSkipsVerification(t *testing.T) {
	_, a := newAnalyzer()
	req := &blockdev.Request{ID: 1, Op: blockdev.OpWrite, LPN: 0, Pages: 1, Data: content.Make(1), NotIssued: true, Err: blockdev.ErrQueueFull}
	pkt := a.OnIssue(req)
	a.OnComplete(pkt, req) // not-issued packets never join the pending set
	if got := len(a.VerifyCandidates(0)); got != 0 {
		t.Fatalf("not-issued packet in verify set (%d)", got)
	}
	if a.Counters().NotIssued != 1 {
		t.Fatal("NotIssued not counted")
	}
}

func TestRecheckWindowExpiry(t *testing.T) {
	k, a := newAnalyzer()
	d := content.Make(1)
	pkt := issueWrite(a, 1, 0, d)
	a.Classify(pkt, d, 0) // verified clean -> recent set
	// To the end of the window the packet is re-offered.
	if got := a.VerifyCandidates(k.Now().Add(recheckWindow)); len(got) != 1 {
		t.Fatalf("recheck candidates = %d, want 1", len(got))
	}
	a.Classify(pkt, d, 0)
	// Beyond the window it ages out.
	if got := a.VerifyCandidates(k.Now().Add(recheckWindow + 1)); len(got) != 0 {
		t.Fatalf("aged candidates = %d, want 0", len(got))
	}
}

func TestLateCorruptionCountsOnce(t *testing.T) {
	_, a := newAnalyzer()
	d := content.Make(0x5)
	pkt := issueWrite(a, 1, 0, d)
	a.Classify(pkt, d, 0)
	// Next fault: the previously verified data is now corrupt.
	bad := content.Make(0x6)
	if got := a.Classify(pkt, bad, 1); got != FailData {
		t.Fatalf("late corruption = %v", got)
	}
	if a.Counters().LateCorruptions != 1 {
		t.Fatal("late corruption not counted")
	}
	// Counting is idempotent per packet.
	a.Classify(pkt, bad, 2)
	if a.Counters().DataFailures != 1 {
		t.Fatal("packet double counted")
	}
}

func TestPerFaultBreakdown(t *testing.T) {
	_, a := newAnalyzer()
	idx := a.BeginFault(0)
	pkt := issueWrite(a, 1, 0, content.Make(1))
	a.Classify(pkt, content.Make(9), idx)
	pf := a.PerFault()
	if len(pf) != 1 || pf[0].DataFailures != 1 {
		t.Fatalf("per-fault = %+v", pf)
	}
}

func TestFailureKindStrings(t *testing.T) {
	for _, f := range []FailureKind{FailNone, FailData, FailFWA, FailIOError} {
		if f.String() == "" {
			t.Fatal("empty failure string")
		}
	}
}

func TestCountersDataLosses(t *testing.T) {
	c := Counters{Failures: Failures{DataFailures: 3, FWA: 4}}
	if c.DataLosses() != 7 {
		t.Fatal("DataLosses wrong")
	}
}
