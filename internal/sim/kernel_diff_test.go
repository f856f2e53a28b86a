package sim

import (
	"fmt"
	"strings"
	"testing"
)

// The radix queue must be indistinguishable from the 4-ary heap it
// replaced (refkernel_test.go). A script of At/After/Stop/Step/RunUntil/
// RunWhile operations, decoded from bytes, drives both kernels side by
// side; callbacks log their firing and may schedule or stop timers
// themselves. After every operation the two must agree on the fire log,
// the clock, the counters, every return value and every handle's state.

// handle is what a script can probe on either kernel's timers.
type handle interface {
	Stop() bool
	Pending() bool
	Fired() bool
	Stopped() bool
	When() Time
}

// scheduler is the kernel API a script drives.
type scheduler interface {
	At(Time, func()) handle
	After(Duration, func()) handle
	Step() bool
	Run() uint64
	RunUntil(Time) uint64
	RunFor(Duration) uint64
	RunWhile(func() bool) uint64
	Now() Time
	Pending() int
	Processed() uint64
}

type radixSched struct{ *Kernel }

func (s radixSched) At(t Time, fn func()) handle        { return s.Kernel.At(t, fn) }
func (s radixSched) After(d Duration, fn func()) handle { return s.Kernel.After(d, fn) }

type heapSched struct{ *refKernel }

func (s heapSched) At(t Time, fn func()) handle        { return s.refKernel.At(t, fn) }
func (s heapSched) After(d Duration, fn func()) handle { return s.refKernel.After(d, fn) }

// side is one kernel under a script, with what its callbacks recorded.
type side struct {
	k       scheduler
	handles []handle
	log     []string // one entry per fired callback: id and clock
}

// maxDepth bounds callback chains, so Run always terminates.
const maxDepth = 3

// mix scrambles a timer id into the callback's choices (splitmix64), so
// both sides act alike exactly when they fire the same ids in order.
func mix(id int) uint64 {
	z := uint64(id)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *side) at(t Time, depth int) {
	id := len(s.handles)
	s.handles = append(s.handles, s.k.At(t, func() { s.fire(id, depth) }))
}

func (s *side) after(d Duration, depth int) {
	id := len(s.handles)
	s.handles = append(s.handles, s.k.After(d, func() { s.fire(id, depth) }))
}

// fire is every scripted callback: log, then maybe schedule a child at
// the same instant, in the past, near term or +30 s, or stop a timer.
func (s *side) fire(id, depth int) {
	s.log = append(s.log, fmt.Sprintf("%d@%d", id, s.k.Now()))
	if depth >= maxDepth {
		return
	}
	r := mix(id)
	switch r % 8 {
	case 0, 1:
		s.after(0, depth+1)
	case 2:
		s.at(s.k.Now()-Time(r>>8%1000), depth+1)
	case 3:
		s.after(Duration(r>>8%500_000), depth+1)
	case 4:
		s.after(30*Second, depth+1)
	case 5:
		s.log = append(s.log, fmt.Sprintf("stop=%v", s.handles[int(r>>8%uint64(len(s.handles)))].Stop()))
	}
}

// script decodes operations from fuzzer or seeded bytes; past the end it
// reads zeros.
type script struct {
	b []byte
	i int
}

func (r *script) byte() byte {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

func (r *script) u32() uint32 {
	return uint32(r.byte()) | uint32(r.byte())<<8 | uint32(r.byte())<<16 | uint32(r.byte())<<24
}

// offset draws a schedule offset from the classes the simulator uses:
// zero, past, ties a few ns apart, service times, +30 s timeouts and far
// keys up to 2^40 ns.
func (r *script) offset() Duration {
	switch r.byte() % 8 {
	case 0:
		return 0
	case 1:
		return -Duration(r.byte()) - 1
	case 2:
		return Duration(r.byte() % 4)
	case 3:
		return Duration(r.byte()) * Microsecond
	case 4:
		return 30 * Second
	case 5:
		return Duration(r.u32()) << 8
	case 6:
		return Duration(r.byte()%4) * 214 * Microsecond
	default:
		return Duration(r.u32() % uint32(100*Millisecond))
	}
}

// step applies one decoded operation to s and returns its result as text.
// How many bytes an operation reads depends only on the bytes, so two
// sides fed the same script stay in step even after they disagree.
func (s *side) step(r *script) string {
	now := s.k.Now()
	switch op := r.byte() % 16; op {
	case 0, 1, 2, 3:
		s.at(now.Add(r.offset()), 0)
	case 4, 5:
		s.after(r.offset(), 0)
	case 6:
		s.at(Time(r.byte()), 0) // an absolute instant, usually past
	case 7, 8:
		idx := int(r.u32())
		if len(s.handles) == 0 {
			return "stop none"
		}
		return fmt.Sprintf("stop %v", s.handles[idx%len(s.handles)].Stop())
	case 9, 10, 11:
		return fmt.Sprintf("step %v", s.k.Step())
	case 12:
		return fmt.Sprintf("until %d", s.k.RunUntil(now.Add(r.offset())))
	case 13:
		// A clock jump past the radix base, then a timer at the new now.
		n := s.k.RunFor(Duration(r.byte()) * Microsecond)
		s.at(s.k.Now(), 0)
		return fmt.Sprintf("for %d", n)
	case 14:
		stop := s.k.Processed() + uint64(r.byte()%8)
		return fmt.Sprintf("while %d", s.k.RunWhile(func() bool { return s.k.Processed() < stop }))
	default:
		if r.byte()%4 == 0 {
			return fmt.Sprintf("run %d", s.k.Run())
		}
		return fmt.Sprintf("step %v", s.k.Step())
	}
	return "schedule"
}

// compareKernels runs the script on both kernels and returns the first
// disagreement, or nil.
func compareKernels(data []byte) error {
	got := &side{k: radixSched{New()}}
	want := &side{k: heapSched{newRefKernel()}}
	rg, rw := &script{b: data}, &script{b: data}
	logged := 0
	for op := 0; rw.i < len(data); op++ {
		g, w := got.step(rg), want.step(rw)
		if g != w {
			return fmt.Errorf("op %d: result %q, heap %q", op, g, w)
		}
		if len(got.log) != len(want.log) {
			return fmt.Errorf("op %d: %d log entries, heap %d", op, len(got.log), len(want.log))
		}
		for ; logged < len(got.log); logged++ { // the logs only grow
			if got.log[logged] != want.log[logged] {
				return fmt.Errorf("op %d: log[%d] = %s, heap %s", op, logged, got.log[logged], want.log[logged])
			}
		}
		if got.k.Now() != want.k.Now() || got.k.Pending() != want.k.Pending() || got.k.Processed() != want.k.Processed() {
			return fmt.Errorf("op %d: now/pending/processed %v/%d/%d, heap %v/%d/%d", op,
				got.k.Now(), got.k.Pending(), got.k.Processed(), want.k.Now(), want.k.Pending(), want.k.Processed())
		}
		if len(got.handles) != len(want.handles) {
			return fmt.Errorf("op %d: %d handles, heap %d", op, len(got.handles), len(want.handles))
		}
		for i, h := range got.handles {
			hw := want.handles[i]
			if h.When() != hw.When() || h.Pending() != hw.Pending() || h.Fired() != hw.Fired() || h.Stopped() != hw.Stopped() {
				return fmt.Errorf("op %d: timer %d when/pending/fired/stopped %v/%v/%v/%v, heap %v/%v/%v/%v", op, i,
					h.When(), h.Pending(), h.Fired(), h.Stopped(), hw.When(), hw.Pending(), hw.Fired(), hw.Stopped())
			}
		}
	}
	return nil
}

// randomScript returns n seeded script bytes.
func randomScript(seed uint64, n int) []byte {
	rng := NewRNG(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint64())
	}
	return b
}

func TestKernelMatchesHeap(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		if err := compareKernels(randomScript(seed, 800)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// The scripts must reach the states the comparison is meant to cover;
// a decoder change that stops producing them would pass vacuously.
func TestKernelScriptsCoverCases(t *testing.T) {
	seen := map[string]int{}
	for seed := uint64(1); seed <= 50; seed++ {
		s := &side{k: radixSched{New()}}
		k := s.k.(radixSched).Kernel
		r := &script{b: randomScript(seed, 800)}
		for r.i < len(r.b) {
			before := k.Now()
			switch res := s.step(r); {
			case res == "stop false":
				seen["Stop of an ended timer"]++
			case strings.HasPrefix(res, "for ") && k.Now() > before:
				seen["RunUntil clock jump"]++
			}
		}
		instants := map[Time]int{}
		for _, h := range s.handles {
			tm := h.(Timer)
			instants[tm.When()]++
			if tm.Stopped() {
				seen["stopped timer"]++
			}
			if k.slots[tm.slot].gen > tm.gen+1 {
				seen["stale handle"]++
			}
			if tm.When() >= 1<<36 {
				seen["key past 2^36 ns"]++
			}
		}
		for _, n := range instants {
			if n > 1 {
				seen["same-instant tie"]++
			}
		}
	}
	for _, name := range []string{"Stop of an ended timer", "RunUntil clock jump", "stopped timer",
		"stale handle", "key past 2^36 ns", "same-instant tie"} {
		if seen[name] == 0 {
			t.Errorf("scripts never produce a %s", name)
		}
	}
}

func FuzzKernel(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(randomScript(seed, 512))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512] // each op rechecks every handle: keep execs fast
		}
		if err := compareKernels(data); err != nil {
			t.Fatal(err)
		}
	})
}
