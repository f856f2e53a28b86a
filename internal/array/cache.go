package array

import (
	"slices"
	"sort"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/sim"
)

// Cached-level member indices.
const (
	cacheIdx   = 0
	backingIdx = 1
)

// cline is one cached backing page: its slot on the cache SSD, the dirty
// flag, and a sequence number so a stale destage completion can never mark
// a re-written line clean. Dirty lines form an intrusive FIFO.
type cline struct {
	lpn   addr.LPN // backing address
	slot  addr.LPN // cache-SSD address
	dirty bool
	seq   uint64
	next  *cline // dirty-FIFO link (nil when not queued)
	inQ   bool
	// pins holds off destaging while a bypass write to the same backing
	// range is in flight (the destage would land after it and resurrect
	// the old content).
	pins int
}

func (a *Array) pushDirty(ln *cline) {
	if ln.inQ {
		return
	}
	ln.inQ = true
	ln.next = nil
	if a.dirtyTail == nil {
		a.dirtyHead, a.dirtyTail = ln, ln
	} else {
		a.dirtyTail.next = ln
		a.dirtyTail = ln
	}
}

func (a *Array) popDirty() *cline {
	ln := a.dirtyHead
	if ln == nil {
		return nil
	}
	a.dirtyHead = ln.next
	if a.dirtyHead == nil {
		a.dirtyTail = nil
	}
	ln.next = nil
	ln.inQ = false
	return ln
}

// DirtyLines reports lines acknowledged to the host but not yet destaged
// to the backing drive (write-back exposure).
func (a *Array) DirtyLines() int {
	n := 0
	for _, ln := range a.lines {
		if ln.dirty {
			n++
		}
	}
	return n
}

func (a *Array) allocSlot() (addr.LPN, bool) {
	if n := len(a.freeSlots); n > 0 {
		s := a.freeSlots[n-1]
		a.freeSlots = a.freeSlots[:n-1]
		return s, true
	}
	if int64(a.nextSlot) < a.ssdPages {
		s := a.nextSlot
		a.nextSlot++
		return s, true
	}
	return 0, false
}

func (a *Array) dropLine(ln *cline) {
	if a.lines[ln.lpn] == ln {
		delete(a.lines, ln.lpn)
		a.freeSlots = append(a.freeSlots, ln.slot)
	}
}

// recoverCache runs when the last member of a downed array comes back: a
// write-through cache is disposable and is dropped wholesale; a write-back
// cache may drop clean lines but *must* keep the dirty ones — the cache
// SSD holds the only copy, so whatever that SSD lost is simply gone.
func (a *Array) recoverCache() {
	// Walk the line map in address order: dropLine returns slots to the
	// free list, and a map-order walk would make post-recovery slot
	// allocation — and with it the whole simulation — nondeterministic.
	lpns := make([]addr.LPN, 0, len(a.lines))
	for lpn := range a.lines {
		lpns = append(lpns, lpn)
	}
	sort.Slice(lpns, func(i, j int) bool { return lpns[i] < lpns[j] })
	for _, lpn := range lpns {
		if ln := a.lines[lpn]; a.cfg.Policy == WriteThrough || !ln.dirty {
			a.dropLine(ln)
			a.stats.LinesDropped++
		}
	}
}

// slotRun is a maximal run of a write's pages whose cache slots are
// contiguous, so it can go out as one member request.
type slotRun struct {
	at  addr.LPN
	off int
	n   int
}

// cachedRead serves hits from the cache SSD and misses from the backing
// drive on the striped path's records: one chunkOp per maximal run of
// request pages whose cache slots (hits) or backing addresses (misses)
// are contiguous, under one codedOp that gathers them into the buffer it
// lends to the host. The runs are all built, and counted into the
// request, before the first goes out, so a member that answers at once
// cannot end the request early.
func (a *Array) cachedRead(lpn addr.LPN, pages int, done func(error, content.Data)) {
	if pages <= 0 {
		return // no run to answer; the block layer never sends an empty IO
	}
	req, _ := a.ops.Get()
	req.op, req.done = blockdev.OpRead, done
	req.buf = slices.Grow(req.buf[:0], pages)[:pages]
	var head, tail *chunkOp
	for i := 0; i < pages; i++ {
		p := lpn + addr.LPN(i)
		member, at := backingIdx, p
		if ln, ok := a.lines[p]; ok {
			a.stats.CacheHits++
			member, at = cacheIdx, ln.slot
		} else {
			a.stats.CacheMisses++
		}
		if tail != nil && tail.cr.member == member && tail.cr.mlpn+addr.LPN(tail.cr.n) == at {
			tail.cr.n++
			continue
		}
		ch, _ := a.chunks.Get()
		ch.req, ch.cr = req, chunkRange{member: member, mlpn: at, off: i, n: 1}
		if tail == nil {
			head = ch
		} else {
			tail.next = ch
		}
		tail = ch
		req.parts++
	}
	for ch := head; ch != nil; {
		next := ch.next
		ch.next = nil
		a.memberSubmit(ch.cr.member, blockdev.OpRead, ch.cr.mlpn, ch.cr.n, content.Data{}, a.chunkCall(ch, roleRead, 0))
		ch = next
	}
}

// cachedWrite places the pages on the cache SSD and, depending on policy,
// acknowledges immediately (write-back: the lines turn dirty and destage
// later) or also writes the backing drive and waits for both
// (write-through). With no free slots the request bypasses the cache.
func (a *Array) cachedWrite(lpn addr.LPN, pages int, data content.Data, done func(error, content.Data)) {
	// Reserve every slot up front; bail to the bypass path on pressure.
	lines := make([]*cline, pages)
	ok := true
	for i := 0; i < pages; i++ {
		p := lpn + addr.LPN(i)
		if ln, exists := a.lines[p]; exists {
			lines[i] = ln
			continue
		}
		slot, got := a.allocSlot()
		if !got {
			ok = false
			break
		}
		ln := &cline{lpn: p, slot: slot}
		a.lines[p] = ln
		lines[i] = ln
	}
	if !ok {
		// Write through to the backing drive. Fresh allocations and clean
		// overlaps are invalidated now (the backing drive is about to hold
		// newer data); dirty overlaps still guard the only copy of earlier
		// acknowledged writes, so they are dropped only once the replacing
		// backing write is durable — and kept if it fails.
		var dirtyOverlaps []*cline
		for i := 0; i < pages; i++ {
			switch ln := lines[i]; {
			case ln == nil:
			case ln.dirty:
				ln.pins++
				dirtyOverlaps = append(dirtyOverlaps, ln)
			default:
				a.dropLine(ln)
			}
		}
		a.stats.Bypasses++
		a.memberSubmit(backingIdx, blockdev.OpWrite, lpn, pages, data, a.call(func(err error, _ content.Data) {
			for _, ln := range dirtyOverlaps {
				ln.pins--
				if err == nil {
					a.dropLine(ln)
				}
			}
			done(err, content.Data{})
		}))
		return
	}

	seqs := make([]uint64, pages)
	for i, ln := range lines {
		ln.seq++
		seqs[i] = ln.seq
	}

	// Group the (possibly discontiguous) slots into contiguous SSD writes.
	var runs []slotRun
	for i, ln := range lines {
		if n := len(runs); n > 0 && runs[n-1].at+addr.LPN(runs[n-1].n) == ln.slot {
			runs[n-1].n++
			continue
		}
		runs = append(runs, slotRun{at: ln.slot, off: i, n: 1})
	}

	parts := len(runs)
	var ssdErr error
	hddPending := a.cfg.Policy == WriteThrough
	var hddErr error
	finish := func() {
		if parts > 0 || hddPending {
			return
		}
		if a.cfg.Policy == WriteBack {
			if ssdErr != nil {
				// The slots hold unknown content; drop the lines that are
				// not protecting earlier acknowledged (dirty) data.
				for i, ln := range lines {
					if a.lines[ln.lpn] == ln && ln.seq == seqs[i] && !ln.dirty {
						a.dropLine(ln)
					}
				}
				done(ssdErr, content.Data{})
				return
			}
			for i, ln := range lines {
				if a.lines[ln.lpn] == ln && ln.seq == seqs[i] {
					ln.dirty = true
					a.pushDirty(ln)
				}
			}
			a.scheduleDestage()
			done(nil, content.Data{})
			return
		}
		// Write-through: the backing drive is authoritative. A cache-side
		// failure only costs the lines; a backing failure fails the write.
		if ssdErr != nil {
			for _, ln := range lines {
				a.dropLine(ln)
			}
		}
		done(hddErr, content.Data{})
	}
	for _, r := range runs {
		r := r
		a.memberSubmit(cacheIdx, blockdev.OpWrite, r.at, r.n, data.Slice(r.off, r.n), a.call(func(err error, _ content.Data) {
			if err != nil && ssdErr == nil {
				ssdErr = err
			}
			parts--
			finish()
		}))
	}
	if a.cfg.Policy == WriteThrough {
		a.memberSubmit(backingIdx, blockdev.OpWrite, lpn, pages, data, a.call(func(err error, _ content.Data) {
			hddErr = err
			hddPending = false
			finish()
		}))
	}
}

// --- write-back destaging ---

func (a *Array) scheduleDestage() {
	if a.destaging.Pending() || a.dirtyHead == nil {
		return
	}
	a.destaging = a.k.After(a.cfg.DestageTick, a.destageTick)
}

func (a *Array) destageTick() {
	a.destaging = sim.Timer{}
	// With a member down the copies can only fail; hold the dirty queue
	// and let the tick idle until the array recovers.
	if a.members[cacheIdx].Ready() && a.members[backingIdx].Ready() {
		for n := 0; n < a.cfg.DestageBatchPages; n++ {
			ln := a.popDirty()
			if ln == nil {
				break
			}
			a.destageLine(ln)
		}
	}
	a.scheduleDestage()
}

// destageAll pushes the whole dirty population at the backing drive now
// (flush command path). The queue is drained before any line is destaged:
// a pinned line re-queues itself synchronously, so popping while destaging
// would spin on it forever.
func (a *Array) destageAll() {
	var batch []*cline
	for {
		ln := a.popDirty()
		if ln == nil {
			break
		}
		batch = append(batch, ln)
	}
	for _, ln := range batch {
		a.destageLine(ln)
	}
}

// destageLine copies one dirty line from the cache SSD to the backing
// drive. The content read from the SSD is trusted: if a power fault
// corrupted the line on the cache device, the corruption propagates — the
// array has no second copy to compare against.
func (a *Array) destageLine(ln *cline) {
	// The queue entry may be stale: the line can have been invalidated
	// (bypass, crash recovery) or cleaned since it was pushed. Its slot
	// may already belong to another line, so touching it would copy the
	// wrong content to the old backing address.
	if a.lines[ln.lpn] != ln || !ln.dirty {
		return
	}
	snap := ln.seq
	requeue := func() {
		if a.lines[ln.lpn] == ln && ln.dirty {
			a.pushDirty(ln)
			a.scheduleDestage()
		}
	}
	if ln.pins > 0 {
		requeue()
		return
	}
	a.memberSubmit(cacheIdx, blockdev.OpRead, ln.slot, 1, content.Data{}, a.call(func(err error, res content.Data) {
		if err != nil {
			requeue()
			return
		}
		if a.lines[ln.lpn] != ln || !ln.dirty {
			return // invalidated or cleaned while the read was in flight
		}
		if ln.pins > 0 {
			requeue()
			return
		}
		// The cache read is lent and the backing write outlives it, so
		// the write carries a copy of the page.
		a.memberSubmit(backingIdx, blockdev.OpWrite, ln.lpn, 1, content.Make(res.Page(0)), a.call(func(err error, _ content.Data) {
			if err != nil {
				requeue()
				return
			}
			a.stats.Destages++
			if a.lines[ln.lpn] == ln {
				if ln.seq == snap {
					ln.dirty = false
				} else {
					a.pushDirty(ln)
					a.scheduleDestage()
				}
			}
		}))
	}))
}
