package ssd

import (
	"errors"
	"fmt"
	"slices"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/dram"
	"powerfail/internal/flash"
	"powerfail/internal/ftl"
	"powerfail/internal/pool"
	"powerfail/internal/power"
	"powerfail/internal/sim"
)

// State is the device lifecycle state as seen across the power cycle.
type State int

// Device states. StateUnavailable means the host link dropped (rail below
// the brownout voltage) while the controller core still runs off the
// decaying rail; StateDead means the controller halted too, or a dip
// below the brownout voltage aborted its recovery: either way the next
// power-good starts a full recovery.
const (
	StateReady State = iota
	StateUnavailable
	StateDead
	StateRecovering
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateUnavailable:
		return "unavailable"
	case StateDead:
		return "dead"
	case StateRecovering:
		return "recovering"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Errors surfaced to the host.
var (
	ErrUnavailable   = errors.New("ssd: device unavailable")
	ErrUncorrectable = errors.New("ssd: uncorrectable read error")
)

// Stats counts device activity across the experiment.
type Stats struct {
	HostReads   int64
	HostWrites  int64
	HostFlushes int64
	HostErrors  int64

	PagesProgrammed int64
	PagesRead       int64
	PagesFlushed    int64
	// CacheStalls counts write backpressure stalls: a write that found
	// the DRAM cache at its dirty cap or, with the cache disabled, the
	// FTL out of pages it may place, and waits to retry.
	CacheStalls int64

	Brownouts           int64
	Deaths              int64
	Recoveries          int64
	PanicFlushes        int64
	InterruptedPrograms int64
	InterruptedErases   int64
	DirtyPagesLost      int64
	MappingsLost        int64
}

// command is one host command. Commands are pooled: a finished command
// returns to the pool once nothing pins it and its done has returned.
// Its scheduled steps and the channel items serving it pin it; a step or
// item that finds it finished only lets go of it. A link drop finishes
// every outstanding command at once, so flush waiters and outstanding
// commands are always live.
type command struct {
	op    blockdev.Op
	lpn   addr.LPN
	pages int
	data  content.Data
	done  func(error, content.Data)
	// result is a read's destination, lent to done. Its backing array
	// stays with the command across reuses, so it grows to the largest
	// read once.
	result   []content.Fingerprint
	parts    int
	from     int // next page the write step places; a read resolves all at once
	err      error
	finished bool
	pins     int

	// Built once per pooled command.
	stepFn    func() // after the command frame crosses the link (flush: after the command overhead)
	retryFn   func() // the write step again, after a backpressure stall
	respondFn func() // after the read payload crosses the link
	failFn    func() // the fail-fast answer to a command the device refused
}

// Device is the SSD under test.
type Device struct {
	k    *sim.Kernel
	r    *sim.RNG
	prof Profile

	chip  *flash.Chip
	ftlm  *ftl.FTL
	cache *dram.Cache // nil when the internal cache is disabled

	state    State
	channels []*channel

	linkBusyUntil sim.Time
	outstanding   []*command
	flushWaiters  []*command

	freeCmds  pool.FreeList[command]
	freeItems pool.FreeList[chItem]
	opsCap    int       // ops capacity of a new item: one channel's share of a flush batch
	batches   []*chItem // per-channel batch scratch, nil where empty

	gcPlan          *ftl.GCPlan           // collection in progress, nil if none
	gcFps           []content.Fingerprint // its victim's page contents
	gcUncorrectable []bool                // which of them read uncorrectable
	gcParts         int                   // its channel items still running

	flushTimer    sim.Timer
	journalTimer  sim.Timer
	flushTickFn   func() // d.flushTick, bound once
	journalTickFn func() // d.journalTick, bound once
	recoveryTimer sim.Timer
	metaInFlight  bool

	hasDirtySince  bool
	firstDirtyAt   sim.Time
	readyListeners []func()
	downListeners  []func()

	stats Stats
}

// New builds the device over a PSU rail and registers its voltage watches
// and electrical load. The device starts Ready (powered).
func New(k *sim.Kernel, r *sim.RNG, prof Profile, psu *power.PSU) (*Device, error) {
	prof = prof.Normalize()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	chip, err := flash.New(prof.ChipConfig(), r.Fork("chip"))
	if err != nil {
		return nil, err
	}
	f, err := ftl.New(chip, prof.FTLConfig())
	if err != nil {
		return nil, err
	}
	var cache *dram.Cache
	if prof.HasCache {
		cache, err = dram.New(prof.CachePages())
		if err != nil {
			return nil, err
		}
	}
	d := &Device{
		k:     k,
		r:     r.Fork("device"),
		prof:  prof,
		chip:  chip,
		ftlm:  f,
		cache: cache,
		state: StateReady,
	}
	d.channels = make([]*channel, prof.Channels)
	for i := range d.channels {
		c := &channel{}
		c.fire = func() { d.itemDone(c) }
		d.channels[i] = c
	}
	d.batches = make([]*chItem, prof.Channels)
	d.opsCap = (prof.FlushBatchPages + prof.Channels - 1) / prof.Channels
	d.flushTickFn, d.journalTickFn = d.flushTick, d.journalTick
	if psu != nil {
		psu.Connect(prof.LoadOhms)
		psu.NotifyBelow(prof.BrownoutVolts, d.onBrownout)
		psu.NotifyBelow(prof.DieVolts, d.onDie)
		psu.NotifyAbove(prof.BrownoutVolts+0.25, d.onPowerGood)
	}
	d.startJournalTick()
	return d, nil
}

// Profile returns the normalized drive profile.
func (d *Device) Profile() Profile { return d.prof }

// Name implements blockdev.Drive.
func (d *Device) Name() string { return d.prof.Name }

// UserPages implements blockdev.Drive.
func (d *Device) UserPages() int64 { return d.prof.UserPages() }

// Ready implements blockdev.Drive: the drive answers the host.
func (d *Device) Ready() bool { return d.state == StateReady }

// State returns the lifecycle state.
func (d *Device) State() State { return d.state }

// Stats returns a snapshot of the counters.
func (d *Device) Stats() Stats { return d.stats }

// Chip exposes the NAND model for tests and tools.
func (d *Device) Chip() *flash.Chip { return d.chip }

// FTL exposes the translation layer for tests and tools.
func (d *Device) FTL() *ftl.FTL { return d.ftlm }

// DirtyCachePages reports acknowledged-but-unflushed pages.
func (d *Device) DirtyCachePages() int {
	if d.cache == nil {
		return 0
	}
	return d.cache.DirtyPages()
}

// CacheStats exposes cache counters (zero value when disabled).
func (d *Device) CacheStats() dram.Stats {
	if d.cache == nil {
		return dram.Stats{}
	}
	return d.cache.Stats()
}

// NotifyReady registers fn to run every time the device transitions to
// Ready after a recovery.
func (d *Device) NotifyReady(fn func()) { d.readyListeners = append(d.readyListeners, fn) }

// NotifyDown registers fn to run every time the host link drops (rail
// below the brownout voltage).
func (d *Device) NotifyDown(fn func()) { d.downListeners = append(d.downListeners, fn) }

// perPageProg is the effective channel occupancy of one page program
// (multi-die pipelining folded into a bandwidth figure).
func (d *Device) perPageProg() sim.Duration {
	return sim.Duration(float64(addr.PageBytes) / d.prof.ChanProgBytesPerSec * 1e9)
}

// ErrOutOfRange reports an access beyond the drive's exported capacity.
var ErrOutOfRange = errors.New("ssd: address beyond device capacity")

// Submit implements blockdev.Device.
func (d *Device) Submit(op blockdev.Op, lpn addr.LPN, pages int, data content.Data, done func(error, content.Data)) {
	if lpn < 0 || int64(lpn)+int64(pages) > d.prof.UserPages() {
		d.failFast(done, ErrOutOfRange)
		return
	}
	if d.state != StateReady {
		d.failFast(done, ErrUnavailable)
		return
	}
	if op != blockdev.OpRead && op != blockdev.OpWrite && op != blockdev.OpFlush {
		d.failFast(done, fmt.Errorf("ssd: unknown op %v", op))
		return
	}
	cmd := d.newCommand()
	cmd.op, cmd.lpn, cmd.pages, cmd.data, cmd.done = op, lpn, pages, data, done
	d.outstanding = append(d.outstanding, cmd)
	switch op {
	case blockdev.OpWrite:
		d.linkCmd(cmd, int64(cmd.pages)*addr.PageBytes, cmd.stepFn)
	case blockdev.OpRead:
		d.linkCmd(cmd, 64, cmd.stepFn) // command frame only
	case blockdev.OpFlush:
		cmd.pins++
		d.k.After(d.prof.CmdOverhead, cmd.stepFn)
	}
}

// failFast answers a refused command with err after the profile's
// fail-fast delay. The answer rides on a pooled command that never
// enters the outstanding list: it is finished from the start, and its
// pin holds it until the answer fires.
func (d *Device) failFast(done func(error, content.Data), err error) {
	d.stats.HostErrors++
	cmd := d.newCommand()
	cmd.done, cmd.err, cmd.finished = done, err, true
	cmd.pins++
	d.k.After(d.prof.FailFast, cmd.failFn)
}

// newCommand takes a command from the pool.
func (d *Device) newCommand() *command {
	cmd, fresh := d.freeCmds.Get()
	if !fresh {
		return cmd
	}
	cmd.stepFn = func() { d.step(cmd) }
	cmd.retryFn = func() {
		if d.unpin(cmd) {
			d.write(cmd)
		}
	}
	cmd.respondFn = func() {
		if d.unpin(cmd) {
			d.completeCmd(cmd, cmd.err)
		}
	}
	cmd.failFn = func() {
		done, err := cmd.done, cmd.err
		d.unpin(cmd)
		done(err, content.Data{})
	}
	return cmd
}

// unpin drops the pin of a step that just fired. It reports whether the
// command still needs the step; a finished one may return to the pool.
func (d *Device) unpin(cmd *command) bool {
	cmd.pins--
	if cmd.finished {
		d.maybeRelease(cmd)
		return false
	}
	return true
}

// maybeRelease returns a finished command to the pool once nothing pins
// it.
func (d *Device) maybeRelease(cmd *command) {
	if !cmd.finished || cmd.pins > 0 {
		return
	}
	*cmd = command{
		result:    cmd.result[:0],
		stepFn:    cmd.stepFn,
		retryFn:   cmd.retryFn,
		respondFn: cmd.respondFn,
		failFn:    cmd.failFn,
	}
	d.freeCmds.Put(cmd)
}

// step runs a command's first controller step: the link transfer of a
// write or read command frame, or the overhead of a flush, has elapsed.
func (d *Device) step(cmd *command) {
	if !d.unpin(cmd) {
		return
	}
	switch cmd.op {
	case blockdev.OpWrite:
		d.write(cmd)
	case blockdev.OpRead:
		d.resolveRead(cmd)
	case blockdev.OpFlush:
		if d.cache == nil || d.cache.DirtyPages() == 0 {
			d.completeCmd(cmd, nil)
			return
		}
		d.flushWaiters = append(d.flushWaiters, cmd)
		d.drainCache()
	}
}

func (d *Device) completeCmd(cmd *command, err error) {
	cmd.finished = true
	if i := slices.Index(d.outstanding, cmd); i >= 0 {
		d.outstanding = slices.Delete(d.outstanding, i, i+1)
	}
	done, data := cmd.done, content.Data{}
	switch {
	case err != nil:
		d.stats.HostErrors++
	case cmd.op == blockdev.OpRead:
		d.stats.HostReads++
		data = content.Wrap(cmd.result)
	case cmd.op == blockdev.OpWrite:
		d.stats.HostWrites++
	default:
		d.stats.HostFlushes++
	}
	// A read's result is lent: the command, which owns its backing
	// array, returns to the pool only once done has returned.
	done(err, data)
	d.maybeRelease(cmd)
}

// linkCmd moves a command's bytes over the host link and runs fn, pinning
// cmd until then.
func (d *Device) linkCmd(cmd *command, bytes int64, fn func()) {
	cmd.pins++
	d.linkTransfer(bytes, fn)
}

func (d *Device) linkTransfer(bytes int64, fn func()) {
	start := d.k.Now()
	if d.linkBusyUntil > start {
		start = d.linkBusyUntil
	}
	dur := d.prof.CmdOverhead + sim.Duration(float64(bytes)/d.prof.LinkBytesPerSec*1e9)
	d.linkBusyUntil = start.Add(dur)
	d.k.At(d.linkBusyUntil, fn)
}

// --- write path ---

// write places a write command's pages from cmd.from on, into the DRAM
// cache or, with the cache disabled, onto flash. A page that finds no
// room stalls the command (write backpressure): it retries the step
// until every page is placed, or a cut answers it.
func (d *Device) write(cmd *command) {
	if d.cache != nil {
		d.insertWrite(cmd)
		return
	}
	d.writeThrough(cmd)
}

// stall records write backpressure at page cmd.from and retries the
// write step after a pause, pinning cmd until then.
func (d *Device) stall(cmd *command) {
	d.stats.CacheStalls++
	cmd.pins++
	d.k.After(200*sim.Microsecond, cmd.retryFn)
}

// insertWrite places write pages into the volatile cache, stalling while
// the dirty population is at its cap; the stall drains the cache at
// once. The ACK that completes the command fires as soon as the last
// page is cached: this is the false-write-acknowledge window the paper
// measures.
func (d *Device) insertWrite(cmd *command) {
	for ; cmd.from < cmd.pages; cmd.from++ {
		if d.cache.DirtyPages() >= d.prof.DirtyCapPages || !d.cache.Write(cmd.lpn+addr.LPN(cmd.from), cmd.data.Page(cmd.from)) {
			d.noteDirty()
			d.drainCache()
			d.stall(cmd)
			return
		}
	}
	d.noteDirty()
	d.completeCmd(cmd, nil)
	d.scheduleFlushTick()
}

func (d *Device) noteDirty() {
	if d.cache != nil && d.cache.QueuedDirty() > 0 && !d.hasDirtySince {
		d.hasDirtySince = true
		d.firstDirtyAt = d.k.Now()
	}
}

// writeThrough programs pages synchronously (internal cache disabled),
// reserving them one at a time; the ACK waits until every page is placed
// and its program has finished. When the FTL refuses a page, the pages
// placed so far go to their channels, so no reserved page waits behind a
// stall, and the command stalls while GC makes room.
func (d *Device) writeThrough(cmd *command) {
	per := d.perPageProg()
	for ; cmd.from < cmd.pages; cmd.from++ {
		t, err := d.ftlm.BeginWrite(cmd.lpn + addr.LPN(cmd.from))
		if err != nil {
			cmd.parts += d.enqueueBatches()
			d.checkGC()
			d.stall(cmd)
			return
		}
		d.batchOp(d.channelOf(t.PPN), itemProgram, per, cmd, pageOp{ppn: t.PPN, fp: cmd.data.Page(cmd.from), lpn: t.LPN})
	}
	cmd.parts += d.enqueueBatches()
	if cmd.parts == 0 {
		d.completeCmd(cmd, nil)
	}
}

// --- read path ---

func (d *Device) resolveRead(cmd *command) {
	cmd.from = cmd.pages
	cmd.result = slices.Grow(cmd.result[:0], cmd.pages)[:cmd.pages]
	for i := 0; i < cmd.pages; i++ {
		lpn := cmd.lpn + addr.LPN(i)
		if d.cache != nil {
			if fp, ok := d.cache.Read(lpn); ok {
				cmd.result[i] = fp
				continue
			}
		}
		ppn, ok := d.ftlm.Lookup(lpn)
		if !ok {
			cmd.result[i] = content.Zero
			continue
		}
		it := d.batchOp(d.channelOf(ppn), itemRead, d.prof.Timing.ReadPage, cmd, pageOp{ppn: ppn, rdIdx: int32(i)})
		it.rdDst = cmd.result
	}
	cmd.parts = d.enqueueBatches()
	if cmd.parts == 0 {
		d.respondRead(cmd)
	}
}

func (d *Device) respondRead(cmd *command) {
	d.linkCmd(cmd, int64(cmd.pages)*addr.PageBytes, cmd.respondFn)
}

// --- background flusher ---

func (d *Device) scheduleFlushTick() {
	if d.cache == nil || d.flushTimer.Pending() {
		return
	}
	d.flushTimer = d.k.After(d.prof.FlushTick, d.flushTickFn)
}

func (d *Device) flushTick() {
	d.flushTimer = sim.Timer{}
	queued := d.cache.QueuedDirty()
	if queued == 0 {
		d.hasDirtySince = false
		return
	}
	idle := d.hasDirtySince && d.k.Now().Sub(d.firstDirtyAt) >= d.prof.FlushIdleAge
	if queued >= d.prof.FlushHighPages || idle || len(d.flushWaiters) > 0 {
		d.drainCache()
	}
	d.scheduleFlushTick()
}

// drainCache pops every queued dirty page and spreads program batches over
// the channels.
func (d *Device) drainCache() {
	if d.cache == nil {
		return
	}
	for {
		if d.cache.QueuedDirty() > 0 && !d.ftlm.CanReserve() {
			// The first BeginWrite would fail: popping a batch only to
			// requeue it changes nothing, so go straight to GC.
			d.checkGC()
			return
		}
		ents := d.cache.PopDirty(d.prof.FlushBatchPages)
		if len(ents) == 0 {
			break
		}
		per := d.perPageProg()
		for i, e := range ents {
			t, err := d.ftlm.BeginWrite(e.LPN)
			if err != nil {
				// Out of free blocks: the unplaced pages stay dirty, GC
				// starts unless a collection is in flight, and its
				// completion reschedules the flusher.
				d.requeueDirty(ents[i:])
				d.enqueueBatches()
				d.checkGC()
				return
			}
			d.batchOp(d.channelOf(t.PPN), itemProgram, per, nil, pageOp{ppn: t.PPN, fp: e.FP, lpn: e.LPN, seq: e.Seq})
		}
		d.enqueueBatches()
	}
	d.hasDirtySince = false
}

// requeueDirty returns popped pages the FTL could not place to the head
// of the dirty queue, in their original order.
func (d *Device) requeueDirty(ents []dram.Entry) {
	for i := len(ents) - 1; i >= 0; i-- {
		d.cache.FlushFailed(ents[i].LPN, ents[i].Seq)
	}
}

// afterBackgroundWork runs the controller's housekeeping after any program
// batch completes: flush-command waiters, journal pressure, GC pressure,
// and rescheduling the flusher.
func (d *Device) afterBackgroundWork() {
	if d.cache != nil && len(d.flushWaiters) > 0 && d.cache.DirtyPages() == 0 {
		waiters := d.flushWaiters
		d.flushWaiters = nil
		for _, cmd := range waiters {
			d.completeCmd(cmd, nil)
		}
	}
	if d.ftlm.CommitDue() && !d.metaInFlight {
		d.startMetaCommit()
	}
	d.checkGC()
	if d.cache != nil && d.cache.QueuedDirty() > 0 {
		d.noteDirty()
		d.scheduleFlushTick()
	}
}

// --- journal ---

func (d *Device) startJournalTick() {
	if d.journalTimer.Pending() {
		return
	}
	d.journalTimer = d.k.After(d.prof.JournalTick, d.journalTickFn)
}

func (d *Device) journalTick() {
	d.journalTimer = sim.Timer{}
	d.ftlm.MaybeCloseRun(d.k.Now())
	if d.ftlm.PendingRecords() > 0 && !d.metaInFlight {
		d.startMetaCommit()
	}
	d.startJournalTick()
}

// metaChannel runs the journal commits, and the GC erases ordered behind
// them.
const metaChannel = 0

// startMetaCommit charges the flash time of persisting the pending mapping
// records; durability takes effect only when the metadata program ends, so
// a cut mid-commit loses the batch.
func (d *Device) startMetaCommit() {
	pending := d.ftlm.PendingRecords()
	if pending == 0 {
		return
	}
	metaPages := (pending + ftl.RecordsPerMetaPage - 1) / ftl.RecordsPerMetaPage
	d.metaInFlight = true
	it := d.newItem(itemMeta, d.perPageProg(), nil)
	it.ops = slices.Grow(it.ops, metaPages)[:metaPages]
	d.enqueue(metaChannel, it)
}

// --- garbage collection ---

// checkGC starts collecting once free space runs low, unless a collection
// is already in flight.
func (d *Device) checkGC() {
	if d.gcPlan == nil && d.ftlm.NeedGC() {
		d.gcStep()
	}
}

// gcStep starts the next collection, or ends the cycle once enough blocks
// are free or none is collectable.
func (d *Device) gcStep() {
	d.gcPlan = nil
	if d.ftlm.GCSatisfied() {
		return
	}
	plan := d.ftlm.GCPlan()
	if plan == nil {
		return
	}
	d.gcPlan = plan
	if len(plan.Moves) == 0 {
		d.gcErase()
		return
	}
	// Phase 1: read every valid page out of the victim.
	n := len(plan.Moves)
	d.gcFps = slices.Grow(d.gcFps[:0], n)[:n]
	d.gcUncorrectable = slices.Grow(d.gcUncorrectable[:0], n)[:n]
	clear(d.gcUncorrectable)
	for i, mv := range plan.Moves {
		it := d.batchOp(d.channelOf(mv.From), itemRead, d.prof.Timing.ReadPage, nil, pageOp{ppn: mv.From, rdIdx: int32(i)})
		it.rdDst = d.gcFps
	}
	d.gcParts = d.enqueueBatches()
}

// gcProgram is phase 2 of a collection: program the pages read out of
// the victim into the FTL's GC frontier. The victim's moves fit the room
// GCPlan checked, and host writes cannot spend the GC reserve, so every
// move finds a page. A page that read uncorrectable is copied as it
// read and stays uncorrectable.
func (d *Device) gcProgram() {
	per := d.perPageProg()
	for i, mv := range d.gcPlan.Moves {
		t, err := d.ftlm.BeginMove(mv.LPN)
		must(err)
		d.batchOp(d.channelOf(t.PPN), itemMove, per, nil, pageOp{
			ppn: t.PPN, fp: d.gcFps[i], lpn: t.LPN, from: mv.From, uncorrectable: d.gcUncorrectable[i],
		})
	}
	d.gcParts = d.enqueueBatches()
}

// gcErase is phase 3 of a collection: erase the victim once the journal
// holds every record that pins it. It closes the open run and, if records
// are pending, queues the erase behind their commit on the commit's
// channel, so channel order commits them first; a cut during the commit
// abandons the erase with the victim's data intact.
func (d *Device) gcErase() {
	victim := d.gcPlan.Victim
	ch := victim % len(d.channels)
	d.ftlm.ForceCloseRun()
	if d.ftlm.PendingRecords() > 0 {
		if !d.metaInFlight {
			d.startMetaCommit()
		}
		ch = metaChannel
	}
	it := d.newItem(itemErase, d.prof.Timing.EraseBlock, nil)
	it.block = victim
	d.enqueue(ch, it)
}

// --- power events ---

// onBrownout models the host link dropping: every outstanding command
// loses its completion and errors once the host notices the drop, as on
// the HDD. Internal work already placed (channels, the flusher) keeps
// running off the decaying rail until the die voltage; a step or item of
// an abandoned command only lets go of it.
func (d *Device) onBrownout() {
	switch d.state {
	case StateDead, StateUnavailable:
		return
	case StateRecovering:
		// A cut during recovery aborts it; the drive stays off the link
		// until the next power-good restarts it.
		d.recoveryTimer.Stop()
		d.recoveryTimer = sim.Timer{}
		d.state = StateDead
		return
	}
	d.stats.Brownouts++
	d.state = StateUnavailable
	for _, fn := range d.downListeners {
		fn()
	}
	lost := make([]func(error, content.Data), len(d.outstanding))
	for i, cmd := range d.outstanding {
		lost[i] = cmd.done
		cmd.finished = true
		d.maybeRelease(cmd)
	}
	clear(d.outstanding)
	d.outstanding = d.outstanding[:0]
	d.flushWaiters = nil
	if len(lost) > 0 {
		d.k.After(d.prof.LinkDownDetect, func() {
			for _, done := range lost {
				d.stats.HostErrors++
				done(ErrUnavailable, content.Data{})
			}
		})
	}
}

func (d *Device) onDie() {
	if d.state == StateDead {
		return
	}
	d.stats.Deaths++
	if d.prof.SuperCap {
		d.supercapComplete()
	} else {
		d.interruptChannels()
	}
	if d.cache != nil {
		d.stats.DirtyPagesLost += int64(d.cache.DropAll())
	}
	cs := d.ftlm.Crash(d.k.Now())
	d.stats.MappingsLost += int64(cs.Lost)
	d.flushTimer.Stop()
	d.flushTimer = sim.Timer{}
	d.journalTimer.Stop()
	d.journalTimer = sim.Timer{}
	d.hasDirtySince = false
	d.state = StateDead
}

func (d *Device) onPowerGood() {
	switch d.state {
	case StateReady, StateRecovering:
		return
	case StateUnavailable:
		// Rail dipped below brownout but recovered before the controller
		// died: the link comes straight back.
		d.state = StateReady
		d.notifyReady()
		return
	}
	d.state = StateRecovering
	d.stats.Recoveries++
	d.linkBusyUntil = 0
	dur := d.prof.RecoveryBase + d.ftlm.RecoverDuration()
	d.recoveryTimer = d.k.After(dur, func() {
		d.recoveryTimer = sim.Timer{}
		d.state = StateReady
		d.startJournalTick()
		d.notifyReady()
	})
}

func (d *Device) notifyReady() {
	for _, fn := range d.readyListeners {
		fn()
	}
}
