package sim

// refKernel is the event kernel as a 4-ary min-heap over (when, seq), kept
// as the reference that the radix queue in kernel.go is tested against
// (kernel_diff_test.go): both must fire every script in the same order
// and agree on every clock, count and handle state along the way.

// refTimer mirrors Timer: a (slot, generation) handle.
type refTimer struct {
	k    *refKernel
	when Time
	slot int32
	gen  uint32
}

// refSlot mirrors timerSlot, with pos indexing the heap (-1 when not
// scheduled) in place of the bucket links.
type refSlot struct {
	fn       func()
	gen      uint32
	pos      int32 // index into the heap, -1 when not scheduled
	endFired bool
}

// heapEnt is one inline priority-queue entry: ordering keys plus the slot
// holding the callback. Comparisons never chase a pointer.
type heapEnt struct {
	when Time
	seq  uint64
	slot int32
}

// When reports the instant at which the timer is due to fire.
func (t refTimer) When() Time { return t.when }

// Pending reports whether the timer is still scheduled.
func (t refTimer) Pending() bool {
	return t.k != nil && t.k.slots[t.slot].gen == t.gen
}

// Stop cancels the timer. It reports whether the cancellation prevented
// the callback from running (false if the timer already fired or was
// stopped, or for the zero Timer). The slot is reclaimed immediately.
func (t refTimer) Stop() bool {
	if t.k == nil {
		return false
	}
	s := &t.k.slots[t.slot]
	if s.gen != t.gen {
		return false // already ended (or the slot moved on)
	}
	t.k.removeEnt(int(s.pos))
	t.k.retire(t.slot, false)
	return true
}

// Stopped reports whether the timer was cancelled before firing.
func (t refTimer) Stopped() bool {
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
func (t refTimer) Fired() bool {
	if t.k == nil {
		return false
	}
	s := &t.k.slots[t.slot]
	if s.gen == t.gen {
		return false // still pending
	}
	return s.gen != t.gen+1 || s.endFired
}

type refKernel struct {
	now       Time
	heap      []heapEnt
	slots     []refSlot
	free      []int32
	seq       uint64
	processed uint64
}

func newRefKernel() *refKernel { return &refKernel{} }

// Now returns the current simulated time.
func (k *refKernel) Now() Time { return k.now }

// Processed returns the total number of events that have fired.
func (k *refKernel) Processed() uint64 { return k.processed }

// Pending returns the number of scheduled timers. Stopped timers are
// removed from the queue eagerly, so this is a length read, not a scan.
func (k *refKernel) Pending() int { return len(k.heap) }

// At schedules fn to run at instant t. Instants in the past run at the
// current time, preserving scheduling order. fn must not be nil.
func (k *refKernel) At(t Time, fn func()) refTimer {
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
		k.slots = append(k.slots, refSlot{pos: -1})
	}
	s := &k.slots[slot]
	s.fn = fn
	s.pos = int32(len(k.heap))
	k.heap = append(k.heap, heapEnt{when: t, seq: k.seq, slot: slot})
	k.seq++
	k.siftUp(len(k.heap) - 1)
	return refTimer{k: k, when: t, slot: slot, gen: s.gen}
}

// After schedules fn to run d after the current time. Negative durations
// are treated as zero.
func (k *refKernel) After(d Duration, fn func()) refTimer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now.Add(d), fn)
}

// retire ends a slot's current occupancy (fired or stopped) and returns
// it to the free list.
func (k *refKernel) retire(slot int32, fired bool) {
	s := &k.slots[slot]
	s.fn = nil
	s.pos = -1
	s.endFired = fired
	s.gen++
	k.free = append(k.free, slot)
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was fired.
func (k *refKernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	ent := k.heap[0]
	k.removeEnt(0)
	fn := k.slots[ent.slot].fn
	k.retire(ent.slot, true)
	k.now = ent.when
	k.processed++
	fn()
	return true
}

// Run fires events until none remain and returns the number fired.
func (k *refKernel) Run() uint64 {
	start := k.processed
	for k.Step() {
	}
	return k.processed - start
}

// RunUntil fires every event scheduled at or before t, then advances the
// clock to t. It returns the number of events fired.
func (k *refKernel) RunUntil(t Time) uint64 {
	start := k.processed
	for len(k.heap) > 0 && k.heap[0].when <= t {
		k.Step()
	}
	if t > k.now {
		k.now = t
	}
	return k.processed - start
}

// RunFor advances the clock by d, firing all events in the window.
func (k *refKernel) RunFor(d Duration) uint64 { return k.RunUntil(k.now.Add(d)) }

// RunWhile fires events while cond returns true and events remain. It is
// the main loop used by experiment runners that wait for a condition (for
// example "device ready") without a hard deadline.
func (k *refKernel) RunWhile(cond func() bool) uint64 {
	start := k.processed
	for cond() && k.Step() {
	}
	return k.processed - start
}

// --- 4-ary min-heap over (when, seq) ---

// less orders entries by firing time, then scheduling order.
func (k *refKernel) less(a, b heapEnt) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// place writes ent at heap index i and keeps its slot's back-pointer
// current, so Stop can find the entry in O(1).
func (k *refKernel) place(i int, ent heapEnt) {
	k.heap[i] = ent
	k.slots[ent.slot].pos = int32(i)
}

func (k *refKernel) siftUp(i int) {
	ent := k.heap[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !k.less(ent, k.heap[parent]) {
			break
		}
		k.place(i, k.heap[parent])
		i = parent
	}
	k.place(i, ent)
}

func (k *refKernel) siftDown(i int) {
	n := len(k.heap)
	ent := k.heap[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if k.less(k.heap[c], k.heap[min]) {
				min = c
			}
		}
		if !k.less(k.heap[min], ent) {
			break
		}
		k.place(i, k.heap[min])
		i = min
	}
	k.place(i, ent)
}

// removeEnt deletes the heap entry at index i, restoring heap order.
func (k *refKernel) removeEnt(i int) {
	n := len(k.heap) - 1
	moved := k.heap[n]
	k.heap = k.heap[:n]
	if i == n {
		return
	}
	k.place(i, moved)
	if i > 0 && k.less(moved, k.heap[(i-1)>>2]) {
		k.siftUp(i)
	} else {
		k.siftDown(i)
	}
}
