package power

import (
	"math"
	"testing"
	"testing/quick"

	"powerfail/internal/racedet"
	"powerfail/internal/sim"
)

func newPSU(t *testing.T) (*sim.Kernel, *PSU) {
	t.Helper()
	k := sim.New()
	p, err := New(k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return k, p
}

func TestSteadyStateVoltage(t *testing.T) {
	_, p := newPSU(t)
	if v := p.Voltage(); v != 5.0 {
		t.Fatalf("steady voltage = %g, want 5", v)
	}
}

// TestFig4Unloaded checks the paper's Fig. 4a: with no device attached the
// rail takes about 1400 ms to discharge to near zero.
func TestFig4Unloaded(t *testing.T) {
	k, p := newPSU(t)
	p.PowerOff()
	v := p.VoltageAt(k.Now().Add(1400 * sim.Millisecond))
	if v > 0.5 || v < 0.2 {
		t.Fatalf("V(1400ms) = %.3f, want ~0.4 (visually zero)", v)
	}
}

// TestFig4Loaded checks Fig. 4b: with one SSD attached the discharge
// reaches near zero around 900 ms and crosses 4.5 V at about 40 ms.
func TestFig4Loaded(t *testing.T) {
	k, p := newPSU(t)
	p.Connect(60.5)
	p.PowerOff()
	if v := p.VoltageAt(k.Now().Add(900 * sim.Millisecond)); v > 0.6 {
		t.Fatalf("V(900ms) = %.3f, want < 0.6", v)
	}
	v40 := p.VoltageAt(k.Now().Add(40 * sim.Millisecond))
	if math.Abs(v40-4.5) > 0.1 {
		t.Fatalf("V(40ms) = %.3f, want ~4.5", v40)
	}
}

func TestLoadSpeedsDischarge(t *testing.T) {
	if DefaultConfig().Validate() != nil {
		t.Fatal("default config invalid")
	}
	k1 := sim.New()
	p1, _ := New(k1, DefaultConfig())
	p1.PowerOff()
	k2 := sim.New()
	p2, _ := New(k2, DefaultConfig())
	p2.Connect(60.5)
	p2.PowerOff()
	at := sim.Time(0).Add(300 * sim.Millisecond)
	if p2.VoltageAt(at) >= p1.VoltageAt(at) {
		t.Fatal("loaded rail should discharge faster")
	}
}

func TestNotifyBelowFiresAtCrossing(t *testing.T) {
	k, p := newPSU(t)
	p.Connect(60.5)
	var firedAt sim.Time
	p.NotifyBelow(4.5, func() { firedAt = k.Now() })
	p.PowerOff()
	k.Run()
	ms := firedAt.Millis()
	if ms < 35 || ms > 47 {
		t.Fatalf("brownout watch fired at %.1f ms, want ~40", ms)
	}
}

func TestWatchOrderingByThreshold(t *testing.T) {
	k, p := newPSU(t)
	var order []string
	p.NotifyBelow(4.5, func() { order = append(order, "brownout") })
	p.NotifyBelow(4.45, func() { order = append(order, "die") })
	p.NotifyBelow(0.25, func() { order = append(order, "floor") })
	p.PowerOff()
	k.Run()
	if len(order) != 3 || order[0] != "brownout" || order[1] != "die" || order[2] != "floor" {
		t.Fatalf("watch order wrong: %v", order)
	}
}

func TestWatchRearmsAcrossCycles(t *testing.T) {
	k, p := newPSU(t)
	count := 0
	p.NotifyBelow(4.5, func() { count++ })
	for i := 0; i < 3; i++ {
		p.PowerOff()
		k.RunFor(2 * sim.Second)
		p.PowerOn()
		k.RunFor(100 * sim.Millisecond)
	}
	if count != 3 {
		t.Fatalf("brownout watch fired %d times, want 3", count)
	}
}

func TestNotifyAboveOnRestore(t *testing.T) {
	k, p := newPSU(t)
	var restored bool
	p.NotifyAbove(4.75, func() { restored = true })
	p.PowerOff()
	k.RunFor(2 * sim.Second)
	if restored {
		t.Fatal("power-good fired during discharge")
	}
	p.PowerOn()
	k.RunFor(50 * sim.Millisecond)
	if !restored {
		t.Fatal("power-good never fired after restore")
	}
}

func TestPowerOnRamp(t *testing.T) {
	k, p := newPSU(t)
	p.PowerOff()
	k.RunFor(2 * sim.Second)
	low := p.Voltage()
	p.PowerOn()
	mid := p.VoltageAt(k.Now().Add(2 * sim.Millisecond))
	if mid <= low || mid >= 5 {
		t.Fatalf("ramp voltage %g not between %g and 5", mid, low)
	}
	if v := p.VoltageAt(k.Now().Add(10 * sim.Millisecond)); v != 5 {
		t.Fatalf("post-ramp voltage %g, want 5", v)
	}
}

func TestCutsRestoresCounters(t *testing.T) {
	k, p := newPSU(t)
	p.PowerOff()
	p.PowerOff() // idempotent
	k.RunFor(sim.Second)
	p.PowerOn()
	p.PowerOn()
	if p.Cuts() != 1 || p.Restores() != 1 {
		t.Fatalf("cuts=%d restores=%d, want 1/1", p.Cuts(), p.Restores())
	}
}

// Property: the discharge curve is monotonically non-increasing.
func TestQuickDischargeMonotonic(t *testing.T) {
	k, p := newPSU(t)
	p.Connect(60.5)
	p.PowerOff()
	f := func(aRaw, bRaw uint16) bool {
		a, b := sim.Duration(aRaw)*sim.Millisecond/10, sim.Duration(bRaw)*sim.Millisecond/10
		if a > b {
			a, b = b, a
		}
		return p.VoltageAt(k.Now().Add(a)) >= p.VoltageAt(k.Now().Add(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{VNominal: 0, Capacitance: 1, BleedOhms: 1},
		{VNominal: 5, Capacitance: 0, BleedOhms: 1},
		{VNominal: 5, Capacitance: 1, BleedOhms: 0},
		{VNominal: 5, Capacitance: 1, BleedOhms: 1, RiseTime: -1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestArduinoCommands(t *testing.T) {
	k := sim.New()
	p, _ := New(k, DefaultConfig())
	atx := NewATX(p)
	ard := NewArduino(k, atx.SetPin16)

	if err := ard.Send(CmdCut); err != nil {
		t.Fatal(err)
	}
	if !p.On() {
		t.Fatal("cut took effect before serial latency")
	}
	k.RunFor(sim.Millisecond)
	if p.On() {
		t.Fatal("PSU still on after cut command")
	}
	if !ard.Pin13() || !atx.Pin16() {
		t.Fatal("pin levels wrong after cut")
	}
	if err := ard.Send(CmdRestore); err != nil {
		t.Fatal(err)
	}
	k.RunFor(sim.Millisecond)
	if !p.On() {
		t.Fatal("PSU off after restore command")
	}
	if ard.Commands() != 2 {
		t.Fatalf("commands = %d, want 2", ard.Commands())
	}
}

// TestCutRestoreCycleAllocatesNothing pins the fault cycle's power
// chain: the Arduino's commands and the PSU's re-armed watch timers
// reuse callbacks bound once, so a warmed cut → discharge → restore →
// ramp cycle allocates nothing.
func TestCutRestoreCycleAllocatesNothing(t *testing.T) {
	if racedet.Enabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	k, p := newPSU(t)
	ard := NewArduino(k, NewATX(p).SetPin16)
	below, above := 0, 0
	p.NotifyBelow(4.5, func() { below++ })
	p.NotifyAbove(4.75, func() { above++ })
	cycle := func() {
		if err := ard.Send(CmdCut); err != nil {
			t.Fatal(err)
		}
		k.RunFor(2 * sim.Second)
		if err := ard.Send(CmdRestore); err != nil {
			t.Fatal(err)
		}
		k.RunFor(100 * sim.Millisecond)
	}
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("cut/restore cycle: %v allocs, want 0", n)
	}
	if below != 22 || above != 22 {
		t.Fatalf("watches fired %d below and %d above over 22 cycles, want 22 each", below, above)
	}
}

func TestArduinoUnknownCommand(t *testing.T) {
	k := sim.New()
	ard := NewArduino(k, nil)
	if err := ard.Send('x'); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestATXIdempotent(t *testing.T) {
	k := sim.New()
	p, _ := New(k, DefaultConfig())
	atx := NewATX(p)
	atx.SetPin16(true)
	atx.SetPin16(true)
	if p.Cuts() != 1 {
		t.Fatalf("cuts = %d, want 1", p.Cuts())
	}
}
