package ssd

import (
	"fmt"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/flash"
	"powerfail/internal/ftl"
	"powerfail/internal/sim"
)

// itemKind distinguishes the work units a flash channel executes.
type itemKind int

const (
	itemProgram itemKind = iota // host data program (cache flush or write-through)
	itemMove                    // garbage-collection migration program
	itemMeta                    // journal commit metadata program
	itemRead                    // page reads
	itemErase                   // block erase
)

// pageOp is one page worth of channel work: 48 bytes, since a flush
// batch holds hundreds. A program or move's FTL reservation is its
// {lpn, ppn}, rebuilt by ticket where the FTL needs it.
type pageOp struct {
	ppn   addr.PPN
	fp    content.Fingerprint
	lpn   addr.LPN
	seq   uint64   // cache sequence to retire (0 = no cache entry)
	from  addr.PPN // move source
	rdIdx int32    // read destination index
	// uncorrectable marks a move whose source read failed ECC: its copy
	// must keep reading uncorrectable.
	uncorrectable bool
}

// ticket returns the FTL reservation a program or move op was built from.
func (op *pageOp) ticket() ftl.Ticket { return ftl.Ticket{LPN: op.lpn, PPN: op.ppn} }

// chItem is a batch executed back-to-back on one channel. A power cut
// lands between or inside its per-page slots; interruption effects are
// computed from elapsed time. Items are pooled by the device; what
// happens when one completes follows from its kind and its cmd: a
// program item without a command is a cache flush batch, a read item
// without one is the read phase of a garbage collection.
type chItem struct {
	kind    itemKind
	ops     []pageOp
	perPage sim.Duration
	block   int                   // erase target
	cmd     *command              // host command this item serves, pinned while queued
	rdDst   []content.Fingerprint // read destination, indexed by pageOp.rdIdx
	startAt sim.Time
}

func (it *chItem) duration() sim.Duration {
	if it.kind == itemErase {
		return it.perPage
	}
	return it.perPage * sim.Duration(len(it.ops))
}

// channel serialises items FIFO, one at a time. The queue is consumed
// from head and reset to empty when drained, so it reuses its storage.
type channel struct {
	queue []*chItem
	head  int
	cur   *chItem
	timer sim.Timer
	fire  func() // completes cur; built once per channel
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("ssd: invariant violated: %v", err))
	}
}

// channelOf maps a page to the channel serving its block. Blocks are laid
// out die-major, so consecutive block numbers rotate across dies, which is
// what lets the FTL stripe active blocks over independent channels.
func (d *Device) channelOf(p addr.PPN) int {
	return d.chip.Geometry().BlockOf(p) % len(d.channels)
}

// newItem takes an item from the pool. A host command it serves is pinned
// until the item is released.
func (d *Device) newItem(kind itemKind, perPage sim.Duration, cmd *command) *chItem {
	it, fresh := d.freeItems.Get()
	if fresh {
		it.ops = make([]pageOp, 0, d.opsCap)
	}
	it.kind, it.perPage, it.cmd = kind, perPage, cmd
	if cmd != nil {
		cmd.pins++
	}
	return it
}

// releaseItem returns an item to the pool, dropping its references. It
// returns the command the item served, unpinned, for the caller to act on.
func (d *Device) releaseItem(it *chItem) *command {
	cmd := it.cmd
	clear(it.ops)
	*it = chItem{ops: it.ops[:0]}
	d.freeItems.Put(it)
	if cmd != nil {
		cmd.pins--
	}
	return cmd
}

// dropItem releases an item whose completion will never run (power
// loss), letting go of its command if nothing else holds it.
func (d *Device) dropItem(it *chItem) {
	if cmd := d.releaseItem(it); cmd != nil {
		d.maybeRelease(cmd)
	}
}

// batchOp adds op to the batch being built for channel ch and returns
// the batch. Batches live in device-owned scratch until enqueueBatches
// sends them.
func (d *Device) batchOp(ch int, kind itemKind, perPage sim.Duration, cmd *command, op pageOp) *chItem {
	it := d.batches[ch]
	if it == nil {
		it = d.newItem(kind, perPage, cmd)
		d.batches[ch] = it
	}
	it.ops = append(it.ops, op)
	return it
}

// enqueueBatches sends every built batch to its channel in channel order
// and reports how many it sent.
func (d *Device) enqueueBatches() int {
	n := 0
	for ch, it := range d.batches {
		if it != nil {
			d.batches[ch] = nil
			d.enqueue(ch, it)
			n++
		}
	}
	return n
}

func (d *Device) enqueue(ch int, it *chItem) {
	c := d.channels[ch]
	c.queue = append(c.queue, it)
	d.kick(c)
}

func (d *Device) kick(c *channel) {
	if c.cur != nil || c.head == len(c.queue) {
		return
	}
	it := c.queue[c.head]
	c.queue[c.head] = nil
	c.head++
	if c.head == len(c.queue) {
		c.queue, c.head = c.queue[:0], 0
	}
	c.cur = it
	it.startAt = d.k.Now()
	c.timer = d.k.After(it.duration(), c.fire)
}

func (d *Device) itemDone(c *channel) {
	it := c.cur
	c.cur = nil
	c.timer = sim.Timer{}
	d.applyComplete(it)
	d.finishItem(it)
	d.kick(c)
}

// finishItem releases a completed item and then runs what its completion
// triggers.
func (d *Device) finishItem(it *chItem) {
	kind, n := it.kind, len(it.ops)
	cmd := d.releaseItem(it)
	switch kind {
	case itemProgram:
		if cmd == nil {
			d.stats.PagesFlushed += int64(n)
		} else if d.lastPart(cmd) {
			d.completeCmd(cmd, cmd.err)
		}
		d.afterBackgroundWork()
	case itemRead:
		if cmd == nil {
			d.gcParts--
			if d.gcParts == 0 {
				d.gcProgram()
			}
		} else if d.lastPart(cmd) {
			d.respondRead(cmd)
		}
	case itemMove:
		d.gcParts--
		if d.gcParts == 0 {
			d.gcErase()
		}
	case itemMeta:
		d.metaInFlight = false
	case itemErase:
		d.gcStep()
	}
}

// lastPart retires one finished channel item of cmd and reports whether
// it was the last one the command waits for: a stalled write waits for
// the items of the pages it has yet to place. A command already finished
// waits for nothing; it may return to the pool instead.
func (d *Device) lastPart(cmd *command) bool {
	if cmd.finished {
		d.maybeRelease(cmd)
		return false
	}
	cmd.parts--
	return cmd.parts == 0 && cmd.from == cmd.pages
}

// applyComplete commits the effects of a fully executed item: a journal
// commit becomes durable only here, so a cut mid-commit loses the batch.
func (d *Device) applyComplete(it *chItem) {
	switch it.kind {
	case itemErase:
		must(d.ftlm.GCFinish(it.block))
	case itemMeta:
		d.ftlm.CommitJournal()
	default:
		for i := range it.ops {
			d.applyOp(it, &it.ops[i])
		}
	}
}

// applyOp commits one successfully finished page operation of it.
func (d *Device) applyOp(it *chItem, op *pageOp) {
	switch it.kind {
	case itemProgram:
		must(d.chip.Program(op.ppn, op.fp))
		d.ftlm.CompleteWrite(op.ticket(), d.k.Now())
		if d.cache != nil && op.seq != 0 {
			d.cache.FlushDone(op.lpn, op.seq)
		}
		d.stats.PagesProgrammed++
	case itemMove:
		if op.uncorrectable {
			must(d.chip.ProgramUncorrectable(op.ppn, op.fp))
		} else {
			must(d.chip.Program(op.ppn, op.fp))
		}
		d.ftlm.CompleteMove(op.ticket(), op.from, d.k.Now())
		d.stats.PagesProgrammed++
	case itemRead:
		res, err := d.chip.Read(op.ppn)
		must(err)
		it.rdDst[op.rdIdx] = res.FP
		if res.Status == flash.ReadUncorrectable {
			switch cmd := it.cmd; {
			case cmd == nil:
				// A collection's read: its move must not launder the
				// failed page into one that reads clean.
				d.gcUncorrectable[op.rdIdx] = true
			case d.prof.UncorrectableAsError && cmd.err == nil:
				cmd.err = ErrUncorrectable
			}
		}
		d.stats.PagesRead++
	}
}

// haltChannels stops every channel at the die: it hands the running item
// to running and each queued one to queued, then returns them to the
// pool. No journal commit or collection survives the halt.
func (d *Device) haltChannels(running, queued func(*chItem)) {
	for _, c := range d.channels {
		c.timer.Stop()
		c.timer = sim.Timer{}
		if it := c.cur; it != nil {
			c.cur = nil
			running(it)
			d.dropItem(it)
		}
		for _, it := range c.queue[c.head:] {
			queued(it)
			d.dropItem(it)
		}
		clear(c.queue)
		c.queue, c.head = c.queue[:0], 0
	}
	d.metaInFlight = false
	d.gcPlan = nil
}

// interruptChannels models the controller dying mid-operation: completed
// page slots of the running item are applied, the in-progress page becomes
// a partial program, and everything queued behind is abandoned.
func (d *Device) interruptChannels() { d.haltChannels(d.applyInterrupted, d.abandonItem) }

// applyInterrupted applies the part of a running item that finished
// before the cut.
func (d *Device) applyInterrupted(it *chItem) {
	elapsed := d.k.Now().Sub(it.startAt)
	if it.kind == itemErase {
		frac := float64(elapsed) / float64(it.perPage)
		must(d.chip.ErasePartial(it.block, frac))
		d.stats.InterruptedErases++
		return
	}
	doneN := 0
	if it.perPage > 0 {
		doneN = int(elapsed / it.perPage)
	}
	if doneN > len(it.ops) {
		doneN = len(it.ops)
	}
	for i := 0; i < doneN; i++ {
		d.applyOp(it, &it.ops[i])
	}
	if doneN >= len(it.ops) {
		return
	}
	rem := elapsed - sim.Duration(doneN)*it.perPage
	start := doneN
	if rem > 0 && (it.kind == itemProgram || it.kind == itemMove) {
		frac := float64(rem) / float64(it.perPage)
		op := &it.ops[doneN]
		must(d.chip.ProgramPartial(op.ppn, op.fp, frac))
		d.ftlm.AbortWrite(op.ticket())
		d.stats.InterruptedPrograms++
		start = doneN + 1
	}
	for i := start; i < len(it.ops); i++ {
		if it.kind == itemProgram || it.kind == itemMove {
			d.ftlm.AbortWrite(it.ops[i].ticket())
		}
	}
}

func (d *Device) abandonItem(it *chItem) {
	if it.kind == itemProgram || it.kind == itemMove {
		for i := range it.ops {
			d.ftlm.AbortWrite(it.ops[i].ticket())
		}
	}
}

// supercapComplete is the power-loss-protection path: the supercapacitor
// holds the controller up long enough to finish in-flight work, drain the
// cache, and commit the journal, so nothing volatile is lost.
func (d *Device) supercapComplete() {
	d.haltChannels(d.applyComplete, d.applyComplete)
	if d.cache != nil {
	drain:
		for {
			ents := d.cache.PopDirty(1024)
			if len(ents) == 0 {
				break
			}
			for i, e := range ents {
				t, err := d.ftlm.BeginWrite(e.LPN)
				if err != nil {
					// Out of free blocks: the unplaced pages stay dirty
					// and die with the DRAM.
					d.requeueDirty(ents[i:])
					break drain
				}
				must(d.chip.Program(t.PPN, e.FP))
				d.ftlm.CompleteWrite(t, d.k.Now())
				d.cache.FlushDone(e.LPN, e.Seq)
			}
		}
	}
	d.ftlm.ForceCloseRun()
	d.ftlm.CommitJournal()
	d.stats.PanicFlushes++
}
