package core

import (
	"context"
	"errors"
	"fmt"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/hdd"
	"powerfail/internal/obs"
	"powerfail/internal/pool"
	"powerfail/internal/sim"
	"powerfail/internal/ssd"
)

type phase int

const (
	phaseRun      phase = iota // workload flowing
	phaseArming                // cut scheduled, workload still flowing
	phasePaused                // window mode: workload stopped, waiting to cut
	phaseFaulting              // power off, waiting for discharge floor
	phaseRestored              // power restored, waiting for device ready
	phaseVerify                // verification reads in progress
	phaseRecovery              // source recovery pass: read-back + verdicts
	phaseDone
)

// The scheduler's fixed settings.
const (
	// thinkTime separates a completion from the next closed-loop issue.
	thinkTime = 300 * sim.Microsecond
	// settleAfterOff holds the rail at the floor before restoring power.
	settleAfterOff = 150 * sim.Millisecond
	// offFloorVolts is the rail voltage treated as fully discharged.
	offFloorVolts = 0.25
)

// Runner executes one experiment on a platform. A platform instance runs
// one experiment; build a fresh platform per run for independence.
type Runner struct {
	p    *Platform
	spec ExperimentSpec

	// src is the experiment's one IO source (synthetic generator,
	// transaction engine or trace replayer behind the same interface);
	// recovery is non-nil when the source wants a post-fault read-back
	// pass (the transaction oracle).
	src      Source
	recovery RecoverySource

	// Per-IO bookkeeping free lists (experiments are single-threaded).
	recFree pool.FreeList[issueRec]
	ctlFree pool.FreeList[ctlRec]
	// thinkFn is the closed loop's post-think-time reissue, arriveFn the
	// open loop's arrival, and fireCutFn and restoreFn the fault cycle's
	// timer callbacks, all bound once.
	thinkFn   func()
	arriveFn  func()
	fireCutFn func()
	restoreFn func()
	// blk is the obs scope the host queue's blkio spans are flushed into.
	blk obs.Scope

	analyzer *Analyzer
	rng      *sim.RNG

	ph          phase
	outstanding int
	issuedTotal int

	completedSinceFault int
	completedActive     int
	nextFaultTarget     int
	faultsDone          int
	faultIdx            int

	// verifyQueue marks a verification pass in progress (nil otherwise)
	// and recoveryReads holds the recovery pass's pages; both passes run
	// through a controlPump built once per runner.
	verifyQueue   []*Packet
	recoveryReads []addr.LPN
	verifyPump    *controlPump
	recoveryPump  *controlPump

	activeSince  sim.Time
	activeTotal  sim.Duration
	startedAt    sim.Time
	cutAt        sim.Time
	cutFired     bool
	timedOut     bool
	faultErrored bool // open loop: first error observed this fault cycle
	// parked marks an open-loop arrival chain stopped during a fault
	// cycle, and parkedAt the instant of the arrival that stopped it.
	parked   bool
	parkedAt sim.Time
	err      error
}

// NewRunner prepares an experiment on the platform.
func NewRunner(p *Platform, spec ExperimentSpec) (*Runner, error) {
	kind := spec.sourceKind(p.Opts.App.Enabled())
	if p.Opts.App.Enabled() && kind != SourceTxn {
		return nil, fmt.Errorf("core: Options.App is configured but the spec selects the %q source", kind)
	}
	if err := spec.validate(kind); err != nil {
		return nil, err
	}
	if spec.MaxSimTime == 0 {
		spec.MaxSimTime = 6 * 60 * sim.Minute
	}
	r := &Runner{
		p:        p,
		spec:     spec,
		analyzer: NewAnalyzer(p.K, recheckWindow),
		rng:      p.RNG.Fork("runner"),
		blk:      p.ObsScope("blk"),
	}
	r.thinkFn = r.reissue
	r.arriveFn = r.arrive
	r.fireCutFn = r.fireCut
	r.restoreFn = r.restore
	r.verifyPump = r.newControlPump(r.verifyOne, r.finishVerification)
	r.recoveryPump = r.newControlPump(r.recoverOne, r.finishRecovery)
	src, err := newSource(kind, p, spec)
	if err != nil {
		return nil, err
	}
	r.src = src
	if rs, ok := src.(RecoverySource); ok {
		r.recovery = rs
	}
	if p.Array != nil {
		r.analyzer.SetAttribution(len(p.Array.Members()), p.Array.Attribute)
	}
	if r.blk.TracingOn() {
		// Only a runner flushes the spans, so only a runner asks for
		// them, on whatever queue the platform ends up with.
		p.Host.RecordSpans()
	}
	return r, nil
}

// Analyzer exposes the failure bookkeeping (for tests and reports).
func (r *Runner) Analyzer() *Analyzer { return r.analyzer }

// Source exposes the experiment's IO source (for tests).
func (r *Runner) Source() Source { return r.src }

// ctxCheckInterval is how many kernel events fire between context polls.
// An event is microseconds of wall time, so cancellation latency stays in
// the sub-millisecond range without a per-event atomic load.
const ctxCheckInterval = 1024

// Run executes the experiment to completion and assembles the report.
// Cancelling ctx stops the simulation at the next poll point and returns
// the partial report together with the context's error; a nil ctx is
// treated as context.Background().
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		r.err = err
		return r.report(), r.err
	}
	k := r.p.K
	r.startedAt = k.Now()
	r.activeSince = k.Now()
	r.ph = phaseRun
	r.nextFaultTarget = r.jitteredTarget()

	// Hardware hooks: discharge-floor watch drives the restore, device
	// readiness drives verification.
	r.p.PSU.NotifyBelow(offFloorVolts, r.onRailFloor)
	r.p.Dev.NotifyReady(r.onDeviceReady)

	deadline := k.Now().Add(r.spec.MaxSimTime)
	k.At(deadline, func() {
		if r.ph != phaseDone {
			r.timedOut = true
			r.ph = phaseDone
		}
	})

	if r.src.OpenLoop() {
		r.scheduleArrival()
	} else {
		r.fillClosedLoop()
	}

	steps := 0
	for r.ph != phaseDone && k.Step() {
		steps++
		if steps%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				r.err = err
				return r.report(), r.err
			}
		}
	}
	if r.timedOut {
		r.err = errors.New("core: experiment exceeded MaxSimTime")
	}
	return r.report(), r.err
}

func (r *Runner) jitteredTarget() int {
	base := r.spec.RequestsPerFault
	j := base / 4
	if j < 1 {
		return base
	}
	return base - j + r.rng.Intn(2*j+1)
}

// --- the one issue path ---

func (r *Runner) fillClosedLoop() {
	for r.ph == phaseRun || r.ph == phaseArming {
		if r.outstanding >= r.p.Opts.Concurrency {
			return
		}
		if !r.issueOne() {
			// The source has nothing issuable until a completion advances
			// its state machine; never the case at zero outstanding, so
			// the loop cannot stall.
			return
		}
	}
}

func (r *Runner) scheduleArrival() {
	if r.ph == phaseDone {
		return
	}
	r.p.K.After(r.src.NextArrival(), r.arriveFn)
}

// arrive is one open-loop arrival. Like the closed-loop thread, the
// open-loop source is unaware of the scheduler's fault and keeps
// submitting through the discharge until errors surface. An arrival that
// cannot issue after the cut has fired parks the chain: until finishCycle
// resumes the workload no arrival could issue, so finishCycle draws the
// skipped intervals instead of firing an event for each.
func (r *Runner) arrive() {
	if r.ph == phaseRun || r.ph == phaseArming ||
		(r.ph == phaseFaulting && !r.faultErrored) {
		r.issueOne()
	} else if r.cutFired {
		r.parked, r.parkedAt = true, r.p.K.Now()
		return
	}
	r.scheduleArrival()
}

// resumeArrivals restarts a parked arrival chain. It draws the interval
// of every arrival that would have fired, issuing nothing, from the
// parked instant up to now, the same draws in the same order, and
// schedules the first arrival after now.
func (r *Runner) resumeArrivals() {
	r.parked = false
	now := r.p.K.Now()
	at := r.parkedAt.Add(r.src.NextArrival())
	for at <= now {
		at = at.Add(r.src.NextArrival())
	}
	r.p.K.At(at, r.arriveFn)
}

// issueRec is the pooled per-IO bookkeeping of the issue path: it carries
// the SourceIO and the analyzer packet (nil for a flush) across the
// request's lifetime and its cached fn is the request's Done callback, so
// issuing an IO allocates nothing in steady state.
type issueRec struct {
	r   *Runner
	io  SourceIO
	pkt *Packet
	fn  func(*blockdev.Request)
}

func (r *Runner) getIssueRec(io SourceIO) *issueRec {
	rec, fresh := r.recFree.Get()
	if fresh {
		rec.r = r
		rec.fn = func(req *blockdev.Request) {
			r := rec.r
			io, pkt := rec.io, rec.pkt
			rec.io, rec.pkt = SourceIO{}, nil
			r.recFree.Put(rec)
			r.src.Done(io, req.Err)
			r.onIOComplete(req, pkt)
		}
	}
	rec.io = io
	return rec
}

// issueOne pulls the source's next IO and puts it on the wire. Writes and
// reads are analyzer packets — they cross the block layer and the
// analyzer's shadow identically whatever produced them, which is what
// makes application-level verdicts corroborable by the device-level
// taxonomy. Barrier flushes carry no payload and are not packets.
func (r *Runner) issueOne() bool {
	io, ok := r.src.Next()
	if !ok {
		return false
	}
	req := r.p.Host.NewRequest()
	req.Op = io.Op
	req.LPN = io.LPN
	req.Pages = io.Pages
	req.Data = io.Data
	rec := r.getIssueRec(io)
	req.Done = rec.fn
	r.outstanding++
	r.issuedTotal++
	r.p.Host.Submit(req)
	if req.Op != blockdev.OpFlush {
		rec.pkt = r.analyzer.OnIssue(req)
	}
	return true
}

func (r *Runner) onIOComplete(req *blockdev.Request, pkt *Packet) {
	r.outstanding--
	if pkt != nil {
		r.analyzer.OnComplete(pkt, req)
	}
	if !req.NotIssued {
		// Host-queue rejections never reached the drive and do not count
		// toward fault spacing.
		r.completedSinceFault++
	}
	if (r.ph == phaseRun || r.ph == phaseArming) && req.Err == nil {
		r.completedActive++
	}

	switch r.ph {
	case phaseRun:
		if r.faultsDone < r.spec.Faults && r.completedSinceFault >= r.nextFaultTarget {
			r.armFault()
			return
		}
		if req.Err != nil {
			// The IO thread backs off on errors; the fault cycle will
			// resume it.
			return
		}
		r.reissueAfterThink()
	case phaseArming, phaseFaulting:
		// The IO source is oblivious to the scheduler's fault: it keeps
		// issuing through the discharge until it observes an error, which
		// is how requests get caught in flight (IO errors). A host-queue
		// rejection is backpressure, not a device error.
		if req.Err != nil && !req.NotIssued {
			r.faultErrored = true
		} else if req.Err == nil {
			r.reissueAfterThink()
		}
	case phaseVerify, phaseRecovery, phaseRestored, phasePaused:
		// Source requests draining during a fault cycle; nothing to do.
	}
	r.maybeStartVerify()
}

func (r *Runner) reissueAfterThink() {
	if r.src.OpenLoop() {
		return // open loop: arrivals are self-scheduled
	}
	r.p.K.After(thinkTime, r.thinkFn)
}

func (r *Runner) reissue() {
	if (r.ph == phaseRun || r.ph == phaseArming || r.ph == phaseFaulting) &&
		r.outstanding < r.p.Opts.Concurrency {
		if !r.issueOne() {
			return
		}
		// One completion can unlock several source IOs (a commit ACK
		// queues a batch of home writes); keep the closed loop full
		// outside fault cycles.
		r.fillClosedLoop()
	}
}

// --- fault cycle ---

// armFault starts a fault cycle. In window mode the workload pauses and
// the cut lands PostACKDelay after the trigger request's ACK; otherwise
// the cut lands a few random milliseconds ahead while traffic continues,
// so in-flight requests can be caught (the paper's random fault instants).
func (r *Runner) armFault() {
	if r.spec.WindowMode {
		r.ph = phasePaused
		r.p.K.After(r.spec.PostACKDelay, r.fireCutFn)
		return
	}
	r.ph = phaseArming
	delay := r.rng.DurationRange(0, 5*sim.Millisecond)
	r.p.K.After(delay, r.fireCutFn)
	r.fillClosedLoop()
}

func (r *Runner) fireCut() {
	if r.ph != phaseArming && r.ph != phasePaused {
		return
	}
	r.noteInactive()
	r.ph = phaseFaulting
	r.cutAt = r.p.K.Now()
	r.cutFired = true
	r.faultIdx = r.analyzer.BeginFault(r.p.K.Now())
	r.p.Sched.Cut()
}

// onRailFloor fires when the rail finishes discharging; after the settle
// hold the scheduler restores power.
func (r *Runner) onRailFloor() {
	if r.ph != phaseFaulting {
		return
	}
	r.p.K.After(settleAfterOff, r.restoreFn)
}

func (r *Runner) restore() {
	if r.ph != phaseFaulting {
		return
	}
	r.ph = phaseRestored
	r.p.Sched.Restore()
}

func (r *Runner) onDeviceReady() {
	if r.ph != phaseRestored {
		return
	}
	r.ph = phaseVerify
	r.maybeStartVerify()
}

func (r *Runner) maybeStartVerify() {
	if r.ph != phaseVerify || r.outstanding > 0 || r.verifyQueue != nil {
		return
	}
	// Hand the fault cycle's completed block IOs to the obs trace as
	// queue-to-complete spans, so block and obs traces share one clock and
	// one export.
	r.p.Host.FlushSpans(r.blk)
	r.verifyQueue = r.analyzer.VerifyCandidates(r.p.K.Now())
	r.verifyPump.start(len(r.verifyQueue))
}

// controlPump runs one pipelined control-read pass, keeping up to
// Opts.Concurrency reads in flight. At the default concurrency of 1 a
// pass is a strict in-order walk; higher values pipeline the read-backs,
// which dominate a fault cycle's simulated time on large
// RequestsPerFault experiments. The verification pass and the source
// recovery pass share it, so both always see the same pipelining policy.
// Each pass has one pump, built with its callbacks once per runner and
// restarted by start for every fault cycle.
type controlPump struct {
	r        *Runner
	n        int
	pos      int
	inFlight int
	// issue starts item i and must call done exactly once when its read
	// completes; it returns false when the item was handled inline with
	// no read (done must not be called then).
	issue  func(i int, done func()) bool
	finish func()
	done   func() // the done every item gets, bound once
}

func (r *Runner) newControlPump(issue func(i int, done func()) bool, finish func()) *controlPump {
	p := &controlPump{r: r, issue: issue, finish: finish}
	p.done = func() { p.inFlight--; p.pump() }
	return p
}

// start runs a pass over n items; the previous pass has finished, so
// nothing is in flight.
func (p *controlPump) start(n int) {
	p.n, p.pos = n, 0
	p.pump()
}

func (p *controlPump) pump() {
	for p.inFlight < p.r.p.Opts.Concurrency && p.pos < p.n {
		i := p.pos
		p.pos++
		// Completions are their own kernel events, so done can never run
		// before issue returns and the in-flight accounting stays exact.
		if p.issue(i, p.done) {
			p.inFlight++
		}
	}
	if p.inFlight == 0 && p.pos >= p.n {
		p.finish()
	}
}

// verifyOne classifies the i-th verification candidate, reading the
// drive back for completed writes.
func (r *Runner) verifyOne(i int, done func()) bool {
	pkt := r.verifyQueue[i]
	if pkt.IsRead() || pkt.NotIssued {
		// Reads carry no durable expectation: only the completed flag
		// matters (IO error detection).
		r.analyzer.Classify(pkt, content.Data{}, r.faultIdx)
		return false
	}
	r.controlRead(pkt.LPN, pkt.Pages, pkt, done)
	return true
}

// ctlRec is the pooled bookkeeping of one control read, including its
// retries. It carries what the read is for, the packet it verifies (nil
// on the recovery pass, which reads page lpn), and its pass's done, so a
// read allocates nothing: fn is the request Done callback and retry the
// timer callback that re-issues after a failed attempt, both cached for
// the record's lifetime.
type ctlRec struct {
	r       *Runner
	lpn     addr.LPN
	pages   int
	attempt int
	pkt     *Packet
	done    func()
	fn      func(*blockdev.Request)
	retry   func()
}

func (r *Runner) getCtlRec() *ctlRec {
	rec, fresh := r.ctlFree.Get()
	if fresh {
		rec.r = r
		rec.retry = func() { rec.r.issueControl(rec) }
		rec.fn = func(req *blockdev.Request) {
			r := rec.r
			if req.Err != nil && rec.attempt < 3 {
				rec.attempt++
				r.p.K.After(10*sim.Millisecond, rec.retry)
				return
			}
			lpn, pkt, done := rec.lpn, rec.pkt, rec.done
			rec.pkt, rec.done = nil, nil
			r.ctlFree.Put(rec)
			r.controlDone(lpn, pkt, req.Result, req.Err)
			done()
		}
	}
	return rec
}

// controlDone hands a control read's final outcome to the pass that
// issued it.
func (r *Runner) controlDone(lpn addr.LPN, pkt *Packet, result content.Data, err error) {
	switch {
	case pkt != nil && err != nil:
		r.analyzer.Classify(pkt, content.Zeroes(0), r.faultIdx)
	case pkt != nil:
		r.analyzer.Classify(pkt, result, r.faultIdx)
	case err != nil:
		// Unreadable after retries: the source treats the page as torn.
		r.recovery.Observe(lpn, 0, err)
	default:
		r.recovery.Observe(lpn, result.Page(0), nil)
	}
}

// issueControl puts one control-read attempt on the wire.
func (r *Runner) issueControl(rec *ctlRec) {
	req := r.p.Host.NewRequest()
	req.Op = blockdev.OpRead
	req.LPN = rec.lpn
	req.Pages = rec.pages
	req.Control = true
	req.Done = rec.fn
	r.p.Host.Submit(req)
}

// controlRead issues a post-recovery platform read of [lpn, lpn+pages)
// for pkt's verification, or for the recovery pass when pkt is nil. The
// drive should be ready, so errors are retried a few times before the
// final outcome goes to controlDone and then done runs (exactly once).
// Both passes read through here, so the two classifiers always see the
// device through the same retry policy.
func (r *Runner) controlRead(lpn addr.LPN, pages int, pkt *Packet, done func()) {
	rec := r.getCtlRec()
	rec.lpn, rec.pages, rec.attempt, rec.pkt, rec.done = lpn, pages, 0, pkt, done
	r.issueControl(rec)
}

func (r *Runner) finishVerification() {
	r.verifyQueue = nil
	if r.recovery != nil {
		r.startRecovery()
		return
	}
	r.finishCycle()
}

// --- source recovery pass ---

// startRecovery runs the source's recovery hook after the device-level
// verification pass: read back whatever the source wants to inspect (the
// transaction oracle's log region and home pages), then let it judge what
// survived.
func (r *Runner) startRecovery() {
	r.ph = phaseRecovery
	r.recoveryReads = r.recovery.RecoveryReads()
	r.recoveryPump.start(len(r.recoveryReads))
}

func (r *Runner) recoverOne(i int, done func()) bool {
	r.controlRead(r.recoveryReads[i], 1, nil, done)
	return true
}

func (r *Runner) finishRecovery() {
	r.recoveryReads = nil
	r.recovery.FinishRecovery()
	r.finishCycle()
}

// finishCycle closes a fault cycle and resumes (or ends) the workload.
func (r *Runner) finishCycle() {
	if r.cutFired {
		r.cutFired = false
		sc := r.p.ObsScope("runner")
		d := r.p.K.Now().Sub(r.cutAt)
		sc.Histogram("fault_cycle_ns").ObserveDuration(d)
		sc.Span(r.cutAt, d, obs.KindSpan, "fault_cycle", int64(r.faultIdx))
	}
	r.faultsDone++
	r.faultErrored = false
	r.completedSinceFault = 0
	r.nextFaultTarget = r.jitteredTarget()
	if r.faultsDone >= r.spec.Faults {
		r.ph = phaseDone
		return
	}
	r.ph = phaseRun
	r.activeSince = r.p.K.Now()
	if !r.src.OpenLoop() {
		r.fillClosedLoop()
	} else if r.parked {
		r.resumeArrivals()
	}
}

func (r *Runner) noteInactive() {
	r.activeTotal += r.p.K.Now().Sub(r.activeSince)
}

// --- report ---

func (r *Runner) report() *Report {
	c := r.analyzer.Counters()
	active := r.activeTotal
	if r.ph != phaseDone && (r.ph == phaseRun || r.ph == phaseArming) {
		active += r.p.K.Now().Sub(r.activeSince)
	}
	rep := &Report{
		Name:          r.spec.Name,
		Profile:       r.p.Dev.Name(),
		Source:        r.src.Kind(),
		Spec:          r.spec,
		SimDuration:   r.p.K.Now().Sub(r.startedAt),
		ActiveTime:    active,
		Requests:      c.Issued,
		Reads:         c.Reads,
		Writes:        c.Writes,
		Completed:     c.Completed,
		Errored:       c.Errored,
		NotIssued:     c.NotIssued,
		Faults:        r.faultsDone,
		Cuts:          r.p.Sched.Cuts(),
		Restores:      r.p.Sched.Restores(),
		Counters:      c,
		PerFault:      r.analyzer.PerFault(),
		HostStats:     r.p.Host.Stats(),
		RequestedIOPS: r.spec.Workload.IOPS,
	}
	if rp, ok := r.src.(reporter); ok {
		rp.addToReport(rep)
	}
	if r.p.SSD != nil {
		st := r.p.SSD.Stats()
		rep.DeviceStats = &st
	}
	if r.p.HDD != nil {
		st := r.p.HDD.Stats()
		rep.HDDStats = &st
	}
	if arr := r.p.Array; arr != nil {
		st := arr.Stats()
		rep.ArrayStats = &st
		fails := r.analyzer.MemberFailures()
		for i, ms := range arr.Members() {
			mr := MemberReport{
				Index: i, Name: ms.Name, Role: ms.Role,
				Reads: ms.Reads, Writes: ms.Writes, Errors: ms.Errors,
			}
			switch d := arr.Drive(i).(type) {
			case *ssd.Device:
				ds := d.Stats()
				mr.Deaths, mr.Recoveries, mr.DirtyPagesLost = ds.Deaths, ds.Recoveries, ds.DirtyPagesLost
			case *hdd.Disk:
				ds := d.Stats()
				mr.Deaths, mr.Recoveries = ds.Deaths, ds.Recoveries
			}
			if i < len(fails) {
				mr.Failures = fails[i]
			}
			rep.Members = append(rep.Members, mr)
		}
	}
	if active > 0 {
		// Responded IOPS counts only completions during powered workload
		// phases, measured against powered workload time.
		rep.RespondedIOPS = float64(r.completedActive) / active.Seconds()
	}
	rep.Events = r.p.K.Processed()
	if r.p.Obs != nil {
		rep.Obs = r.p.Obs.Summary()
		rep.ObsTrace = r.p.Obs.Trace()
	}
	if rep.Faults > 0 {
		rep.DataLossPerFault = float64(c.DataLosses()) / float64(rep.Faults)
	}
	return rep
}

// RunExperiment is the one-call entry point: build a platform, run the
// spec under ctx, return the report. When Options.Fleet is set the
// datacenter fleet path runs instead of the single-device platform.
func RunExperiment(ctx context.Context, opts Options, spec ExperimentSpec) (*Report, error) {
	if opts.Fleet != nil {
		return runFleetExperiment(ctx, opts, spec)
	}
	p, err := NewPlatform(opts)
	if err != nil {
		return nil, err
	}
	runner, err := NewRunner(p, spec)
	if err != nil {
		return nil, err
	}
	return runner.Run(ctx)
}
