package sim

import (
	"math"
	"math/bits"
)

// The event kernel is the innermost loop of every experiment: a fleet
// campaign fires tens of millions of events, so the scheduler must not
// allocate per event and must not pay for depth it does not have.
//
// The traffic it serves is shallow and lopsided. The perfbench fleet
// shape schedules ~115k timers per fault cycle: 42.4k zero-delay
// completions, 42.4k member service completions a few hundred
// microseconds out, 30.0k open-loop arrivals and a few fault and
// controller timers, with ~121 pending on average and 213 at most. The
// fleet arms no request timeout, since every +30 s deadline lies past
// the horizon it declares (SetHorizon); a single-drive experiment arms
// one per request and nearly always stops it before it fires.
//
// The queue is a monotone radix queue. Events fire in (when, seq) order,
// and no key ever falls below the last fired one: At clamps past instants
// to now, and seq only grows. So the queue keeps last, the instant of the
// last fired event, and files a timer due at w in bucket bits.Len64(w ^
// last): bucket 0 holds timers due exactly at last, bucket b > 0 those
// whose highest bit differing from last is b-1. Every timer in a lower
// bucket is due before every timer in a higher one. Bucket 0 is a FIFO in
// seq order, so a zero-delay completion is an O(1) append and pop. When
// bucket 0 runs dry, Step takes the lowest non-empty bucket, moves last
// to its earliest instant and refiles its timers into lower buckets (a
// timer descends at most 63 times in its life; a lone timer is popped
// without refiling). A far timeout sits in a high bucket until stopped,
// and Stop unlinks it in O(1). The firing order equals that of any exact
// priority queue over (when, seq), so the queue changes no report byte.
//
// Timers live in an inline slot arena recycled through a free list; the
// buckets are intrusive doubly linked lists threaded through the arena by
// slot index, so the queue owns no per-bucket storage and holds no
// pointers. Handles are (slot, generation) pairs so a stale handle can
// never cancel an unrelated timer that happens to reuse its slot.

// Timer is a handle to a pending callback scheduled on a Kernel. Timers
// are one-shot; use Stop to cancel one that has not fired yet. The zero
// Timer is valid and behaves like a timer that never existed (Stop
// returns false, Pending/Fired/Stopped report false).
type Timer struct {
	k    *Kernel
	when Time
	slot int32
	gen  uint32
}

// timerSlot is the kernel-side state behind a Timer handle. A slot hosts
// one scheduled timer at a time; gen identifies the current occupancy and
// advances when the timer ends (fires or is stopped), which invalidates
// outstanding handles. endFired records how generation gen-1 ended, so a
// handle probed after its timer ended still answers Fired/Stopped
// correctly until the slot hosts a new timer that also ends. While the
// timer is pending, (when, seq) is its firing key and next/prev link it
// into its bucket (noSlot at either end).
type timerSlot struct {
	fn       func()
	when     Time
	seq      uint64
	next     int32
	prev     int32
	gen      uint32
	bucket   uint8
	endFired bool
}

// noSlot terminates a bucket list.
const noSlot = -1

// When reports the instant at which the timer is due to fire.
func (t Timer) When() Time { return t.when }

// Pending reports whether the timer is still scheduled.
func (t Timer) Pending() bool {
	return t.k != nil && t.k.slots[t.slot].gen == t.gen
}

// Stop cancels the timer. It reports whether the cancellation prevented
// the callback from running (false if the timer already fired or was
// stopped, or for the zero Timer). The slot is reclaimed immediately.
func (t Timer) Stop() bool {
	if t.k == nil {
		return false
	}
	s := &t.k.slots[t.slot]
	if s.gen != t.gen {
		return false // already ended (or the slot moved on)
	}
	t.k.unlink(t.slot)
	t.k.retire(t.slot, false)
	return true
}

// Stopped reports whether the timer was cancelled before firing.
func (t Timer) Stopped() bool {
	if t.k == nil {
		return false
	}
	s := &t.k.slots[t.slot]
	return s.gen == t.gen+1 && !s.endFired
}

// Fired reports whether the timer's callback has run. Once the slot has
// hosted (and ended) a later timer the distinction from Stopped is gone;
// a long-stale handle reports Fired unless the slot's most recent ending
// is a known Stop of this handle's generation.
func (t Timer) Fired() bool {
	if t.k == nil {
		return false
	}
	s := &t.k.slots[t.slot]
	if s.gen == t.gen {
		return false // still pending
	}
	return s.gen != t.gen+1 || s.endFired
}

// Kernel is a single-threaded discrete-event scheduler. Events scheduled
// for the same instant fire in scheduling order (FIFO), which keeps
// experiments deterministic.
type Kernel struct {
	now  Time
	last Time // radix base: every pending timer is due at or after it
	// head[b] is the first slot of bucket b, valid only while bit b of
	// mask is set; tail0 is the last slot of bucket 0.
	head      [64]int32
	mask      uint64
	tail0     int32
	pending   int
	slots     []timerSlot
	free      []int32
	seq       uint64
	processed uint64
	// horizon is the instant past which the owner declared the kernel
	// will never run, valid only while bounded is set.
	horizon Time
	bounded bool
}

// New returns a kernel with the clock at time zero and no pending events.
func New() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Processed returns the total number of events that have fired.
func (k *Kernel) Processed() uint64 { return k.processed }

// SetHorizon declares that the kernel will never run past t, so a timer
// due after t can never fire and its owner may skip scheduling it. Step
// and RunUntil refuse (panic) to pass the horizon. It may be lowered but
// not raised, since a timer skipped under the old horizon would then be
// missed, and not set before now.
func (k *Kernel) SetHorizon(t Time) {
	if t < k.now || (k.bounded && t > k.horizon) {
		panic("sim: SetHorizon before now or past the declared horizon")
	}
	k.horizon, k.bounded = t, true
}

// Beyond reports whether instant t lies past the declared horizon, where
// a timer could never fire. Without a horizon nothing is beyond.
func (k *Kernel) Beyond(t Time) bool { return k.bounded && t > k.horizon }

// Pending returns the number of scheduled timers. Stopped timers are
// unlinked eagerly, so this is a counter read, not a scan.
func (k *Kernel) Pending() int { return k.pending }

// At schedules fn to run at instant t. Instants in the past run at the
// current time, preserving scheduling order. fn must not be nil.
func (k *Kernel) At(t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	if t < k.now {
		t = k.now
	}
	var slot int32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		slot = int32(len(k.slots))
		k.slots = append(k.slots, timerSlot{})
	}
	s := &k.slots[slot]
	s.fn = fn
	s.when = t
	s.seq = k.seq
	k.seq++
	k.pending++
	if t == k.last {
		k.append0(slot)
	} else {
		k.push(slot, bucketOf(t, k.last))
	}
	return Timer{k: k, when: t, slot: slot, gen: s.gen}
}

// After schedules fn to run d after the current time. Negative durations
// are treated as zero.
func (k *Kernel) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now.Add(d), fn)
}

// retire ends a slot's current occupancy (fired or stopped) and returns
// it to the free list. The slot must already be out of its bucket.
func (k *Kernel) retire(slot int32, fired bool) {
	s := &k.slots[slot]
	s.fn = nil
	s.endFired = fired
	s.gen++
	k.pending--
	k.free = append(k.free, slot)
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was fired, and panics if that
// event lies beyond the horizon.
func (k *Kernel) Step() bool {
	slot := k.next(math.MaxInt64)
	if slot == noSlot {
		return false
	}
	if k.Beyond(k.slots[slot].when) {
		panic("sim: Step past the declared horizon")
	}
	k.fire(slot)
	return true
}

// fire runs the timer in slot, which next has just taken off the queue.
func (k *Kernel) fire(slot int32) {
	s := &k.slots[slot]
	fn, when := s.fn, s.when
	k.retire(slot, true)
	k.now = when
	k.processed++
	fn()
}

// Run fires events until none remain and returns the number fired.
func (k *Kernel) Run() uint64 {
	start := k.processed
	for k.Step() {
	}
	return k.processed - start
}

// RunUntil fires every event scheduled at or before t, then advances the
// clock to t. It returns the number of events fired, and panics if t lies
// beyond the horizon.
func (k *Kernel) RunUntil(t Time) uint64 {
	if k.Beyond(t) {
		panic("sim: RunUntil past the declared horizon")
	}
	start := k.processed
	for {
		slot := k.next(t)
		if slot == noSlot {
			break
		}
		k.fire(slot)
	}
	if t > k.now {
		k.now = t
	}
	return k.processed - start
}

// RunFor advances the clock by d, firing all events in the window.
func (k *Kernel) RunFor(d Duration) uint64 { return k.RunUntil(k.now.Add(d)) }

// RunWhile fires events while cond returns true and events remain. It is
// the main loop used by experiment runners that wait for a condition (for
// example "device ready") without a hard deadline.
func (k *Kernel) RunWhile(cond func() bool) uint64 {
	start := k.processed
	for cond() && k.Step() {
	}
	return k.processed - start
}

// --- monotone radix queue over (when, seq) ---

// bucketOf returns the bucket of a timer due at when, for radix base
// last <= when: one more than the index of the highest differing bit.
// Times are never negative, so the result is below 64.
func bucketOf(when, last Time) uint8 {
	return uint8(bits.Len64(uint64(when ^ last)))
}

// next unlinks and returns the earliest pending timer if it is due at or
// before limit, and noSlot otherwise. It moves the radix base only to an
// instant it is about to fire, so last never passes now.
func (k *Kernel) next(limit Time) int32 {
	if k.mask&1 == 0 {
		if k.mask == 0 {
			return noSlot
		}
		b := uint8(bits.TrailingZeros64(k.mask))
		h := k.head[b]
		if k.slots[h].next == noSlot {
			// A lone timer in the lowest bucket is the minimum; refiling
			// it into bucket 0 only to pop it again would be wasted work.
			if k.slots[h].when > limit {
				return noSlot
			}
			k.mask &^= 1 << b
			k.last = k.slots[h].when
			return h
		}
		earliest := k.slots[h].when
		for i := k.slots[h].next; i != noSlot; i = k.slots[i].next {
			if w := k.slots[i].when; w < earliest {
				earliest = w
			}
		}
		if earliest > limit {
			return noSlot
		}
		k.mask &^= 1 << b
		k.last = earliest
		for i := h; i != noSlot; {
			s := &k.slots[i]
			nx := s.next
			if s.when == earliest {
				k.insert0(i)
			} else {
				k.push(i, bucketOf(s.when, earliest))
			}
			i = nx
		}
	} else if k.last > limit {
		return noSlot
	}
	h := k.head[0]
	k.unlink(h)
	return h
}

// push links slot at the front of bucket b > 0, whose order is free.
func (k *Kernel) push(slot int32, b uint8) {
	s := &k.slots[slot]
	s.bucket = b
	s.prev = noSlot
	if k.mask&(1<<b) == 0 {
		s.next = noSlot
		k.mask |= 1 << b
	} else {
		s.next = k.head[b]
		k.slots[s.next].prev = slot
	}
	k.head[b] = slot
}

// append0 links slot at the tail of bucket 0. Timers scheduled for the
// radix base carry the newest seq, so appending keeps the FIFO sorted.
func (k *Kernel) append0(slot int32) {
	s := &k.slots[slot]
	s.bucket = 0
	s.next = noSlot
	if k.mask&1 == 0 {
		s.prev = noSlot
		k.mask |= 1
		k.head[0] = slot
	} else {
		s.prev = k.tail0
		k.slots[k.tail0].next = slot
	}
	k.tail0 = slot
}

// insert0 links slot into bucket 0 in seq order. Refiling visits a
// bucket front to back, and push builds buckets front-first, so ties at
// the new base tend to arrive newest first: the walk from the head then
// stops at once, and an in-order arrival is caught by the tail check.
func (k *Kernel) insert0(slot int32) {
	seq := k.slots[slot].seq
	if k.mask&1 == 0 || k.slots[k.tail0].seq < seq {
		k.append0(slot)
		return
	}
	at := k.head[0] // the first entry with a larger seq; the tail has one
	for k.slots[at].seq < seq {
		at = k.slots[at].next
	}
	s := &k.slots[slot]
	s.bucket = 0
	s.next = at
	s.prev = k.slots[at].prev
	k.slots[at].prev = slot
	if s.prev == noSlot {
		k.head[0] = slot
	} else {
		k.slots[s.prev].next = slot
	}
}

// unlink removes slot from its bucket.
func (k *Kernel) unlink(slot int32) {
	s := &k.slots[slot]
	b := s.bucket
	if s.prev == noSlot {
		k.head[b] = s.next
		if s.next == noSlot {
			k.mask &^= 1 << b
		}
	} else {
		k.slots[s.prev].next = s.next
	}
	if s.next != noSlot {
		k.slots[s.next].prev = s.prev
	} else if b == 0 {
		k.tail0 = s.prev
	}
}
