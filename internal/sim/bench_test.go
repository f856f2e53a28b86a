package sim

import (
	"testing"

	"powerfail/internal/racedet"
)

// BenchmarkKernelScheduleFire measures the schedule→fire round trip that
// every simulated event pays. The callback is hoisted so the benchmark
// isolates the kernel's own cost; allocs/op must be zero in steady state.
func BenchmarkKernelScheduleFire(b *testing.B) {
	k := New()
	fn := func() {}
	k.After(0, fn) // warm-up: the first timer grows the slot table and the free list
	k.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(Duration(i%97), fn)
		k.Step()
	}
}

// BenchmarkKernelDeepQueue keeps 4096 timers pending while scheduling and
// firing: a stress depth, ~15x the deepest queue the fleet workload
// reaches (~125 pending on average, 276 at most; see
// BenchmarkKernelFleetMix for that traffic).
func BenchmarkKernelDeepQueue(b *testing.B) {
	k := New()
	fn := func() {}
	for i := 0; i < 4096; i++ {
		k.After(Duration(1+i%251), fn)
	}
	k.After(1, fn) // warm-up round, as in BenchmarkKernelScheduleFire
	k.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(Duration(1+i%251), fn)
		k.Step()
	}
}

// BenchmarkKernelScheduleStop measures the cancel path: timeout timers
// are scheduled per IO and almost always stopped. Eager reclamation makes
// this allocation-free and keeps the queue from accumulating dead entries.
func BenchmarkKernelScheduleStop(b *testing.B) {
	k := New()
	fn := func() {}
	k.After(1, fn).Stop() // warm-up round, as in BenchmarkKernelScheduleFire
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := k.After(Duration(1+i%97), fn)
		tm.Stop()
	}
	b.StopTimer()
	if n := k.Pending(); n != 0 {
		b.Fatalf("%d timers pending after stop-only load", n)
	}
}

// fleetMix replays the kernel traffic the perfbench fleet workload made
// while it still armed request timeouts: schedules split into thirds
// between zero-delay completions, +30 s request timeouts that are always
// stopped before they fire, and near-term timers (service completions
// and arrivals, here exponential with a 20 ms mean), at ~128 pending.
// Each round schedules one of each, stops the oldest of mixTimeouts
// timeouts and fires two events, so mixNear near-term timers stay in
// flight. The fleet now declares its run's end as the horizon and arms
// no timeout (per fault: 42,409 zero-delay completions, 42,410 member
// service completions, 30,046 arrivals); the mix keeps the timeouts,
// which every single-drive request still arms and stops, so it covers
// the Stop path and stays comparable with earlier measurements.
type fleetMix struct {
	k        *Kernel
	fn       func()
	timeouts [mixTimeouts]Timer
	delays   [1024]Duration
	round    int
}

const (
	mixTimeouts = 42
	mixNear     = 85
)

func newFleetMix() *fleetMix {
	m := &fleetMix{k: New(), fn: func() {}}
	rng := NewRNG(1)
	for i := range m.delays {
		m.delays[i] = Duration(rng.ExpMean(float64(20 * Millisecond)))
	}
	for i := range m.timeouts {
		m.timeouts[i] = m.k.After(30*Second, m.fn)
	}
	for i := 0; i < mixNear; i++ {
		m.k.After(m.delays[i], m.fn)
	}
	return m
}

func (m *fleetMix) step() {
	m.k.After(0, m.fn)
	t := &m.timeouts[m.round%mixTimeouts]
	t.Stop()
	*t = m.k.After(30*Second, m.fn)
	m.k.After(m.delays[m.round%len(m.delays)], m.fn)
	m.round++
	m.k.Step()
	m.k.Step()
}

// BenchmarkKernelFleetMix measures one fleetMix round: three schedules,
// one stop and two fires at the fleet's queue depth.
func BenchmarkKernelFleetMix(b *testing.B) {
	m := newFleetMix()
	for i := 0; i < 4096; i++ {
		m.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.step()
	}
	b.ReportMetric(float64(m.k.Pending()), "pending")
}

func TestKernelFleetMixAllocatesNothing(t *testing.T) {
	if racedet.Enabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	m := newFleetMix()
	for i := 0; i < 4096; i++ {
		m.step()
	}
	if n := m.k.Pending(); n < 120 || n > 136 {
		t.Fatalf("fleet mix holds %d timers pending, want ~128", n)
	}
	if n := testing.AllocsPerRun(1000, m.step); n != 0 {
		t.Fatalf("a fleet-mix round made %v allocs, want 0", n)
	}
}
