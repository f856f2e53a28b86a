// Package dram models the SSD's internal volatile write-back cache: the
// component the paper singles out as a primary source of data loss, since
// writes are acknowledged to the host as soon as they land in DRAM and die
// with it on power failure unless a supercapacitor drains them to flash.
//
// The cache keeps dirty entries in arrival (FIFO) order for the background
// flusher and clean entries on an LRU list for read caching. A page being
// flushed stays readable; if the host overwrites it mid-flush the entry is
// re-dirtied with a new sequence number so the stale flush completion
// cannot mark it clean.
//
// Entries live in a slot arena linked by int32 indices: both lists are
// intrusive, freed slots go on a free list, and a power loss resets the
// arena in place, so the steady state allocates nothing. The arena grows
// in fixed chunks of slotChunk slots, opened one at a time as the first
// write past the last chunk arrives and never copied or reallocated: a
// cache that holds a few thousand pages pays for those pages once, not
// for the doublings an append-grown slice copies on the way. A page table
// maps each resident page to its slot.
package dram

import (
	"fmt"

	"powerfail/internal/addr"
	"powerfail/internal/content"
)

// Entry is the host-visible view of one cached page.
type Entry struct {
	LPN addr.LPN
	FP  content.Fingerprint
	Seq uint64
}

// nilSlot terminates a list and marks an empty free list.
const nilSlot int32 = -1

// slotChunk is the number of slots in one arena chunk: 256 × 40 B is
// 10 KiB, a small-object size class the runtime serves without a large
// span.
const slotChunk = 256

// listID names the list a slot is linked on.
type listID uint8

const (
	onNone listID = iota
	onDirty
	onClean
)

type slot struct {
	lpn        addr.LPN
	fp         content.Fingerprint
	seq        uint64 // never 0 in a live slot
	prev, next int32  // links on the list named by on; next doubles as the free-list link
	flights    int32  // outstanding flusher pops for this entry
	dirty      bool
	on         listID
}

func (s *slot) flushing() bool { return s.flights > 0 }

// list is a doubly linked list of arena slots.
type list struct {
	id         listID
	head, tail int32
	n          int
}

// Stats counts cache activity.
type Stats struct {
	Hits         int64
	Misses       int64
	Inserts      int64
	Evictions    int64
	Flushes      int64
	ReDirties    int64
	DroppedDirty int64 // dirty pages lost to power failures
}

// Cache is the volatile write-back cache.
type Cache struct {
	capPages int
	m        addr.Table[int32] // 1 + the slot of each resident page
	resident int               // pages m maps
	chunks   []*[slotChunk]slot
	used     int32   // slots handed out since the last DropAll, free ones included
	free     int32   // head of the free-slot list
	dirtyQ   list    // FIFO by first-dirty time
	cleanLRU list    // head = most recent
	flushing int     // pages popped by the flusher, not yet retired
	popBuf   []Entry // PopDirty's result, reused call to call
	seq      uint64
	stats    Stats
}

// New builds a cache holding capPages 4 KiB pages.
func New(capPages int) (*Cache, error) {
	if capPages <= 0 {
		return nil, fmt.Errorf("dram: capacity must be positive, got %d", capPages)
	}
	return &Cache{
		capPages: capPages,
		free:     nilSlot,
		dirtyQ:   list{id: onDirty, head: nilSlot, tail: nilSlot},
		cleanLRU: list{id: onClean, head: nilSlot, tail: nilSlot},
	}, nil
}

// Cap returns the capacity in pages.
func (c *Cache) Cap() int { return c.capPages }

// Len returns the number of resident pages.
func (c *Cache) Len() int { return c.resident }

// DirtyPages returns the number of dirty (including flushing) pages.
func (c *Cache) DirtyPages() int { return c.dirtyQ.n + c.flushing }

// QueuedDirty returns dirty pages waiting for the flusher (excludes pages
// already being flushed).
func (c *Cache) QueuedDirty() int { return c.dirtyQ.n }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// --- arena and list primitives ---

// at returns arena slot i, which lives at chunks[i/slotChunk][i%slotChunk].
func (c *Cache) at(i int32) *slot {
	return &c.chunks[uint32(i)/slotChunk][uint32(i)%slotChunk]
}

// alloc takes a slot from the free list or, when it is empty, the next
// unused slot, opening a chunk only when the last one is full. A slot
// past used may hold a page from before the last DropAll; the caller
// overwrites it whole.
func (c *Cache) alloc() int32 {
	if i := c.free; i != nilSlot {
		c.free = c.at(i).next
		return i
	}
	i := c.used
	if int(i) == len(c.chunks)*slotChunk {
		c.chunks = append(c.chunks, new([slotChunk]slot))
	}
	c.used++
	return i
}

// release unmaps a slot and returns it to the free list.
func (c *Cache) release(i int32) {
	s := c.at(i)
	*c.m.Ref(s.lpn) = 0
	c.resident--
	*s = slot{next: c.free}
	c.free = i
}

func (c *Cache) pushBack(l *list, i int32) {
	s := c.at(i)
	s.on, s.prev, s.next = l.id, l.tail, nilSlot
	if l.tail == nilSlot {
		l.head = i
	} else {
		c.at(l.tail).next = i
	}
	l.tail = i
	l.n++
}

func (c *Cache) pushFront(l *list, i int32) {
	s := c.at(i)
	s.on, s.prev, s.next = l.id, nilSlot, l.head
	if l.head == nilSlot {
		l.tail = i
	} else {
		c.at(l.head).prev = i
	}
	l.head = i
	l.n++
}

// unlink removes slot i from whichever list holds it.
func (c *Cache) unlink(i int32) {
	s := c.at(i)
	var l *list
	switch s.on {
	case onDirty:
		l = &c.dirtyQ
	case onClean:
		l = &c.cleanLRU
	default:
		return
	}
	if s.prev == nilSlot {
		l.head = s.next
	} else {
		c.at(s.prev).next = s.next
	}
	if s.next == nilSlot {
		l.tail = s.prev
	} else {
		c.at(s.next).prev = s.prev
	}
	s.on, s.prev, s.next = onNone, nilSlot, nilSlot
	l.n--
}

// --- cache operations ---

// Write inserts or overwrites a page as dirty. It reports false when the
// cache is full of dirty pages and cannot accept more; the controller must
// let the flusher drain before retrying (write backpressure).
func (c *Cache) Write(lpn addr.LPN, fp content.Fingerprint) bool {
	e := c.m.Ref(lpn)
	if *e != 0 {
		i := *e - 1
		s := c.at(i)
		s.fp = fp
		c.seq++
		s.seq = c.seq
		switch {
		case s.flushing():
			// Overwritten mid-flush: re-dirty so the in-flight flush
			// completion cannot retire the newer data. A slot already
			// back on the clean list stays there.
			s.dirty = true
			if s.on == onNone {
				c.pushBack(&c.dirtyQ, i)
			}
			c.stats.ReDirties++
		case s.dirty:
			// Already queued dirty; keep FIFO position.
		default:
			c.unlink(i)
			s.dirty = true
			c.pushBack(&c.dirtyQ, i)
		}
		c.stats.Inserts++
		return true
	}
	if c.resident >= c.capPages && !c.evictClean() {
		return false
	}
	c.seq++
	i := c.alloc()
	*c.at(i) = slot{lpn: lpn, fp: fp, seq: c.seq, dirty: true}
	c.pushBack(&c.dirtyQ, i)
	*e = i + 1
	c.resident++
	c.stats.Inserts++
	return true
}

// evictClean drops the least recently used slot of the clean list. Like a
// retired flush, it leaves the flushing count alone.
func (c *Cache) evictClean() bool {
	i := c.cleanLRU.tail
	if i == nilSlot {
		return false
	}
	c.unlink(i)
	c.release(i)
	c.stats.Evictions++
	return true
}

// Read looks a page up, refreshing its LRU position when clean.
func (c *Cache) Read(lpn addr.LPN) (content.Fingerprint, bool) {
	i := c.m.Get(lpn) - 1
	if i < 0 {
		c.stats.Misses++
		return content.Zero, false
	}
	s := c.at(i)
	if !s.dirty && !s.flushing() && s.on == onClean {
		c.unlink(i)
		c.pushFront(&c.cleanLRU, i)
	}
	c.stats.Hits++
	return s.fp, true
}

// PopDirty removes up to max pages from the head of the dirty FIFO and
// marks them flushing. The pages stay readable until FlushDone.
//
// The returned slice belongs to the cache: it stays valid only until the
// next PopDirty call, which reuses it. Callers that keep entries longer
// must copy them.
func (c *Cache) PopDirty(max int) []Entry {
	if max <= 0 {
		return nil
	}
	out := c.popBuf[:0]
	for len(out) < max {
		i := c.dirtyQ.head
		if i == nilSlot {
			break
		}
		c.unlink(i)
		s := c.at(i)
		s.dirty = false
		if s.flights == 0 {
			c.flushing++
		}
		s.flights++
		out = append(out, Entry{LPN: s.lpn, FP: s.fp, Seq: s.seq})
	}
	c.popBuf = out
	return out
}

// FlushDone retires a flushed page. If the page was overwritten while the
// flush was in flight (sequence mismatch) it stays dirty; otherwise it
// becomes clean and joins the LRU.
func (c *Cache) FlushDone(lpn addr.LPN, seq uint64) {
	i := c.m.Get(lpn) - 1
	if i < 0 {
		return
	}
	s := c.at(i)
	c.retireFlight(s)
	if s.seq != seq {
		// Newer data arrived; its dirty queue entry (added by Write)
		// is already in place.
		return
	}
	s.dirty = false
	if s.on == onNone {
		c.pushFront(&c.cleanLRU, i)
	}
	c.stats.Flushes++
}

func (c *Cache) retireFlight(s *slot) {
	if s.flights > 0 {
		s.flights--
		if s.flights == 0 {
			c.flushing--
		}
	}
}

// FlushFailed requeues a page whose flush was interrupted before the
// program completed; the data is still only in DRAM.
func (c *Cache) FlushFailed(lpn addr.LPN, seq uint64) {
	i := c.m.Get(lpn) - 1
	if i < 0 {
		return
	}
	s := c.at(i)
	c.retireFlight(s)
	if s.seq != seq {
		return
	}
	s.dirty = true
	if s.on == onNone {
		c.pushFront(&c.dirtyQ, i)
	}
}

// Invalidate drops a page (trim or host discard).
func (c *Cache) Invalidate(lpn addr.LPN) {
	i := c.m.Get(lpn) - 1
	if i < 0 {
		return
	}
	s := c.at(i)
	c.unlink(i)
	if s.flights > 0 {
		c.flushing--
	}
	c.release(i)
}

// DropAll models power loss: every entry vanishes. It returns the number
// of dirty pages (acknowledged data) that were lost. The arena, the page
// table and the pop buffer keep their storage for the next power cycle:
// the used count goes back to 0 and the chunks stay.
func (c *Cache) DropAll() int {
	lost := 0
	for lo := 0; lo < int(c.used); lo += slotChunk {
		ch := c.chunks[lo/slotChunk][:min(slotChunk, int(c.used)-lo)]
		for i := range ch {
			s := &ch[i]
			if s.seq == 0 {
				// A free slot: zeroed, so it holds no page. Its LPN 0
				// may be resident in another slot.
				continue
			}
			if s.dirty || s.flushing() {
				lost++
			}
			*c.m.Ref(s.lpn) = 0
		}
	}
	c.resident = 0
	c.used = 0
	c.free = nilSlot
	c.dirtyQ = list{id: onDirty, head: nilSlot, tail: nilSlot}
	c.cleanLRU = list{id: onClean, head: nilSlot, tail: nilSlot}
	c.flushing = 0
	c.stats.DroppedDirty += int64(lost)
	return lost
}
