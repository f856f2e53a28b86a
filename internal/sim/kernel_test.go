package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelFiresInTimeOrder(t *testing.T) {
	k := New()
	var got []Time
	for _, d := range []Duration{50, 10, 30, 20, 40} {
		d := d
		k.After(d, func() { got = append(got, k.Now()) })
	}
	if n := k.Run(); n != 5 {
		t.Fatalf("Run fired %d events, want 5", n)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if got[0] != Time(10) || got[4] != Time(50) {
		t.Fatalf("unexpected firing times: %v", got)
	}
}

func TestKernelSameInstantFIFO(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(Time(100), func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestKernelPastEventsRunNow(t *testing.T) {
	k := New()
	k.After(100, func() {})
	k.Run()
	now := k.Now()
	firedAt := Time(-1)
	tm := k.At(Time(5), func() { firedAt = k.Now() }) // in the past
	if tm.When() != now {
		t.Fatalf("past event scheduled at %v, want now %v", tm.When(), now)
	}
	k.Run()
	if firedAt != now {
		t.Fatalf("past event fired at %v, want now %v", firedAt, now)
	}
}

func TestTimerStop(t *testing.T) {
	k := New()
	fired := false
	tm := k.After(10, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	k.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if !tm.Stopped() || tm.Fired() {
		t.Fatal("stopped timer state wrong")
	}
}

func TestStopAfterFire(t *testing.T) {
	k := New()
	tm := k.After(1, func() {})
	k.Run()
	if tm.Stop() {
		t.Fatal("Stop after firing returned true")
	}
	if !tm.Fired() {
		t.Fatal("Fired not set")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	k := New()
	fired := 0
	k.After(10, func() { fired++ })
	k.After(20, func() { fired++ })
	k.After(30, func() { fired++ })
	if n := k.RunUntil(Time(20)); n != 2 {
		t.Fatalf("RunUntil fired %d, want 2", n)
	}
	if k.Now() != Time(20) {
		t.Fatalf("clock at %v, want 20", k.Now())
	}
	if fired != 2 {
		t.Fatalf("fired=%d, want 2", fired)
	}
	k.RunFor(Duration(15))
	if fired != 3 || k.Now() != Time(35) {
		t.Fatalf("after RunFor: fired=%d now=%v", fired, k.Now())
	}
}

func TestRunWhile(t *testing.T) {
	k := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			k.After(1, tick)
		}
	}
	k.After(1, tick)
	k.RunWhile(func() bool { return count < 10 })
	if count != 10 {
		t.Fatalf("RunWhile stopped at count=%d, want 10", count)
	}
}

func TestPendingExcludesStopped(t *testing.T) {
	k := New()
	t1 := k.After(10, func() {})
	k.After(20, func() {})
	if k.Pending() != 2 {
		t.Fatalf("Pending=%d, want 2", k.Pending())
	}
	t1.Stop()
	if k.Pending() != 1 {
		t.Fatalf("Pending=%d after stop, want 1", k.Pending())
	}
}

// Regression: stopped timers used to linger in the queue until
// popped, so a cut-heavy fleet run accumulated dead entries. Stop now
// unlinks the timer and reclaims its slot eagerly.
func TestStoppedTimersReclaimedEagerly(t *testing.T) {
	k := New()
	timers := make([]Timer, 1000)
	for i := range timers {
		timers[i] = k.After(Duration(i+1), func() {})
	}
	for _, tm := range timers {
		if !tm.Stop() {
			t.Fatal("Stop returned false on pending timer")
		}
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending=%d, want 0", k.Pending())
	}
	// The slot table is recycled, not regrown.
	slots := len(k.slots)
	for i := range timers {
		timers[i] = k.After(Duration(i+1), func() {})
	}
	if len(k.slots) != slots {
		t.Fatalf("slot table grew from %d to %d across a full recycle", slots, len(k.slots))
	}
	if n := k.Run(); n != 1000 {
		t.Fatalf("Run fired %d, want 1000", n)
	}
}

// Regression (PR 9): a stale handle whose slot has been reused must not
// cancel (or report on) the unrelated timer now occupying the slot.
func TestStaleHandleCannotTouchReusedSlot(t *testing.T) {
	k := New()
	fired := false
	t1 := k.After(10, func() {})
	if !t1.Stop() {
		t.Fatal("Stop failed")
	}
	t2 := k.After(20, func() { fired = true }) // reuses t1's slot
	if t2.slot != t1.slot {
		t.Fatalf("free list did not reuse the slot (t1=%d t2=%d)", t1.slot, t2.slot)
	}
	if t1.Stop() {
		t.Fatal("stale handle cancelled the reused slot's timer")
	}
	if t1.Fired() {
		t.Fatal("stale stopped handle reports Fired")
	}
	if !t2.Pending() {
		t.Fatal("live timer lost its pending state")
	}
	k.Run()
	if !fired {
		t.Fatal("reused-slot timer never fired")
	}
	if !t2.Fired() || t2.Stopped() {
		t.Fatal("fired timer state wrong")
	}
}

// Pending is O(1): it must stay exact through heavy interleaved
// schedule/stop/fire churn without scanning.
func TestPendingExactUnderChurn(t *testing.T) {
	k := New()
	live := map[int]Timer{}
	next := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			live[next] = k.After(Duration(1+(next%7)), func() {})
			next++
		}
		for id, tm := range live {
			if id%3 == 0 {
				tm.Stop()
				delete(live, id)
			}
		}
		if k.Pending() != len(live) {
			t.Fatalf("round %d: Pending=%d, want %d", round, k.Pending(), len(live))
		}
		k.RunFor(2)
		for id, tm := range live {
			if tm.Fired() {
				delete(live, id)
			}
		}
		if k.Pending() != len(live) {
			t.Fatalf("round %d after RunFor: Pending=%d, want %d", round, k.Pending(), len(live))
		}
	}
}

func TestZeroTimerIsInert(t *testing.T) {
	var tm Timer
	if tm.Stop() || tm.Pending() || tm.Fired() || tm.Stopped() || tm.When() != 0 {
		t.Fatal("zero Timer is not inert")
	}
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(nil) did not panic")
		}
	}()
	New().At(0, nil)
}

func TestNestedScheduling(t *testing.T) {
	k := New()
	var seq []string
	k.After(10, func() {
		seq = append(seq, "a")
		k.After(5, func() { seq = append(seq, "c") })
		k.After(1, func() { seq = append(seq, "b") })
	})
	k.Run()
	if len(seq) != 3 || seq[0] != "a" || seq[1] != "b" || seq[2] != "c" {
		t.Fatalf("nested order wrong: %v", seq)
	}
}

// Property: any batch of randomly timed events fires in sorted order.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		k := New()
		var fired []Time
		for _, d := range delays {
			k.After(Duration(d), func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProcessedCount(t *testing.T) {
	k := New()
	for i := 0; i < 7; i++ {
		k.After(Duration(i), func() {})
	}
	k.Run()
	if k.Processed() != 7 {
		t.Fatalf("Processed=%d, want 7", k.Processed())
	}
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

func TestKernelHorizon(t *testing.T) {
	free := New()
	if free.Beyond(Time(math.MaxInt64)) {
		t.Fatal("a kernel with no horizon reports an instant beyond it")
	}
	fired := 0
	free.At(Time(1<<40), func() { fired++ })
	if free.RunUntil(Time(1 << 40)); fired != 1 {
		t.Fatal("a kernel with no horizon did not run to a far instant")
	}

	const h = Time(100)
	k := New()
	k.SetHorizon(h)
	if k.Beyond(h) || !k.Beyond(h+1) {
		t.Fatalf("Beyond(h)=%v, Beyond(h+1)=%v; want false, true", k.Beyond(h), k.Beyond(h+1))
	}
	if !panics(func() { k.SetHorizon(h + 1) }) {
		t.Fatal("raising the horizon did not panic")
	}
	var at []Time
	k.At(h, func() { at = append(at, k.Now()) })
	k.At(h+1, func() { at = append(at, k.Now()) })
	if n := k.RunUntil(h); n != 1 || len(at) != 1 || at[0] != h || k.Now() != h {
		t.Fatalf("RunUntil(h) fired %d at %v, clock %v; want the timer at h", n, at, k.Now())
	}
	if !panics(func() { k.RunUntil(h + 1) }) {
		t.Fatal("RunUntil past the horizon did not panic")
	}
	if !panics(func() { k.Step() }) {
		t.Fatal("Step to a timer past the horizon did not panic")
	}
	if len(at) != 1 {
		t.Fatalf("a timer past the horizon fired at %v", at[1:])
	}
	late := New()
	late.RunUntil(h)
	if !panics(func() { late.SetHorizon(h - 1) }) {
		t.Fatal("a horizon before now did not panic")
	}
}
