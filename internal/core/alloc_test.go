package core

import (
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/racedet"
	"powerfail/internal/sim"
)

// TestOnIssueAllocs pins the analyzer's issue path for a 256-page
// write: a recycled packet reuses its Prev and allocates nothing, and a
// fresh packet allocates twice, itself and a Prev sized once.
func TestOnIssueAllocs(t *testing.T) {
	if racedet.Enabled {
		t.Skip("the race detector allocates")
	}
	_, a := newAnalyzer()
	req := &blockdev.Request{Op: blockdev.OpWrite, LPN: 512, Pages: 256, Data: content.Random(sim.NewRNG(1), 256)}
	cycle := func() { a.release(a.OnIssue(req)) }
	cycle() // builds the packet and the shadow's table nodes
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("OnIssue + release of a recycled packet: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { a.OnIssue(req) }); n != 2 {
		t.Errorf("OnIssue of a fresh packet: %v allocs, want 2", n)
	}
}

// echoDrive answers each command after a fixed latency, a read with a
// fixed payload, through one cached callback. It serves one command at a
// time, which is all a verification pass at Concurrency 1 sends.
type echoDrive struct {
	k    *sim.Kernel
	data content.Data
	done func(error, content.Data)
	fire func()
}

func newEchoDrive(k *sim.Kernel, data content.Data) *echoDrive {
	d := &echoDrive{k: k, data: data}
	d.fire = func() {
		done := d.done
		d.done = nil
		done(nil, d.data)
	}
	return d
}

func (d *echoDrive) Submit(_ blockdev.Op, _ addr.LPN, _ int, _ content.Data, done func(error, content.Data)) {
	d.done = done
	d.k.After(50*sim.Microsecond, d.fire)
}

// verifyRig returns a runner whose host queue sits over an echoDrive
// that reads back want, and a step that verifies one completed write of
// want as the verification pass does: a control read through the queue,
// then Classify. The write is
// unsplit (64 pages), so the read's result is the drive's payload.
func verifyRig(tb testing.TB) (r *Runner, pkt *Packet, step func()) {
	tb.Helper()
	p, err := NewPlatform(smallOpts(1))
	if err != nil {
		tb.Fatal(err)
	}
	r, err = NewRunner(p, ExperimentSpec{Name: "verify", Workload: smallWrites(), RequestsPerFault: 1, Faults: 1})
	if err != nil {
		tb.Fatal(err)
	}
	want := content.Random(sim.NewRNG(2), 64)
	if p.Host, err = blockdev.New(p.K, newEchoDrive(p.K, want), nil, p.Opts.Host); err != nil {
		tb.Fatal(err)
	}
	r.faultIdx = r.analyzer.BeginFault(p.K.Now())
	req := &blockdev.Request{ID: 1, Op: blockdev.OpWrite, LPN: 4096, Pages: want.Pages(), Data: want, Queued: p.K.Now()}
	pkt = r.analyzer.OnIssue(req)
	r.analyzer.OnComplete(pkt, req)
	r.analyzer.VerifyCandidates(p.K.Now())

	queue := []*Packet{pkt}
	finished := false
	done := func() { finished = true }
	pending := func() bool { return !finished }
	step = func() {
		finished = false
		r.verifyQueue = queue
		r.verifyOne(0, done)
		p.K.RunWhile(pending)
		// Classify keeps a clean packet in the recheck set; drop it so
		// the set does not grow across steps.
		r.analyzer.recent = r.analyzer.recent[:0]
	}
	return r, pkt, step
}

// TestVerifyReadAllocatesNothing pins a warmed verification read, from
// the control read through the block layer to Classify, at 0 allocs.
func TestVerifyReadAllocatesNothing(t *testing.T) {
	if racedet.Enabled {
		t.Skip("the race detector allocates")
	}
	r, pkt, step := verifyRig(t)
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("verification read: %v allocs, want 0", n)
	}
	if c := r.analyzer.Counters(); pkt.FailedAs != FailNone || c.OKVerified != 1 {
		t.Fatalf("packet failed as %v, %d verified OK; want a clean verification", pkt.FailedAs, c.OKVerified)
	}
}

// BenchmarkClassify classifies a completed 8-page write whose read-back
// matches, the common case of every verification pass.
func BenchmarkClassify(b *testing.B) {
	_, a := newAnalyzer()
	want := content.Random(sim.NewRNG(1), 8)
	pkt := issueWrite(a, 1, 0, want)
	a.Classify(pkt, want, 0) // grows the recheck set once
	a.recent = a.recent[:0]
	b.ReportAllocs()
	for b.Loop() {
		a.Classify(pkt, want, 0)
		a.recent = a.recent[:0]
	}
}

// BenchmarkVerifyRead is one warmed verification read of a 64-page
// write: control read, block layer, device answer, Classify.
func BenchmarkVerifyRead(b *testing.B) {
	_, _, step := verifyRig(b)
	step()
	b.ReportAllocs()
	for b.Loop() {
		step()
	}
}
