// Package power models the hardware part of the paper's test platform: an
// independent ATX power supply whose 5 V rail drives the SSD under test, an
// ATX controller with the active-low PS_ON# pin (pin 16), and an Arduino
// UNO whose output pin 13 drives PS_ON# on command from the software part.
//
// The distinguishing feature of the paper's platform versus earlier
// transistor-based cutters is that the drive experiences the *slow
// capacitive discharge* of the PSU: the 5 V rail decays exponentially with
// a time constant set by the PSU bulk capacitance against the bleed
// resistance in parallel with the attached loads. The default configuration
// is calibrated to the paper's Fig. 4: about 1400 ms from 5 V to near zero
// with no load, about 900 ms with one SSD attached, and the SSD crossing
// its 4.5 V brownout threshold roughly 40 ms after the cut.
package power

import (
	"fmt"
	"math"

	"powerfail/internal/sim"
)

// Config describes the electrical model of the PSU's 5 V rail.
type Config struct {
	// VNominal is the regulated rail voltage while the supply is on.
	VNominal float64
	// Capacitance is the effective bulk capacitance on the rail, farads.
	Capacitance float64
	// BleedOhms is the internal discharge resistance with no loads.
	BleedOhms float64
	// RiseTime is the ramp from 0 V to VNominal at power-on.
	RiseTime sim.Duration
}

// DefaultConfig returns the Fig. 4 calibration: tau(unloaded) = 554 ms and,
// with the default SSD load attached, tau(loaded) = 380 ms, which puts the
// 4.5 V crossing at 40 ms and the visually-zero crossing near 900 ms.
func DefaultConfig() Config {
	return Config{
		VNominal:    5.0,
		Capacitance: 0.020, // 20,000 uF equivalent bulk capacitance
		BleedOhms:   27.7,
		RiseTime:    5 * sim.Millisecond,
	}
}

// Validate checks the configuration for physical plausibility.
func (c Config) Validate() error {
	if c.VNominal <= 0 {
		return fmt.Errorf("power: VNominal must be positive, got %g", c.VNominal)
	}
	if c.Capacitance <= 0 {
		return fmt.Errorf("power: Capacitance must be positive, got %g", c.Capacitance)
	}
	if c.BleedOhms <= 0 {
		return fmt.Errorf("power: BleedOhms must be positive, got %g", c.BleedOhms)
	}
	if c.RiseTime < 0 {
		return fmt.Errorf("power: RiseTime must be non-negative, got %s", c.RiseTime)
	}
	return nil
}

// watch is a persistent voltage-threshold trigger. It fires its callback
// every time the rail crosses its threshold in the watched direction
// (downward for NotifyBelow, upward for NotifyAbove).
type watch struct {
	threshold float64
	below     bool // true: fire on downward crossing
	fn        func()
	timer     sim.Timer
	fire      func() // the timer callback, bound once in addWatch
}

// PSU models the independent ATX supply driving the device under test.
type PSU struct {
	k   *sim.Kernel
	cfg Config

	on         bool
	switchedAt sim.Time
	vAtSwitch  float64 // rail voltage at the moment of the last switch

	loads   []float64 // attached device resistances, ohms
	watches []*watch

	cuts     int
	restores int
}

// New builds a PSU in the powered-on steady state.
func New(k *sim.Kernel, cfg Config) (*PSU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &PSU{
		k:          k,
		cfg:        cfg,
		on:         true,
		switchedAt: k.Now(),
		vAtSwitch:  cfg.VNominal,
	}, nil
}

// Config returns the electrical configuration.
func (p *PSU) Config() Config { return p.cfg }

// On reports whether the supply is switched on (the rail may still be
// ramping or discharging; see Voltage).
func (p *PSU) On() bool { return p.on }

// Cuts returns the number of power-off commands processed.
func (p *PSU) Cuts() int { return p.cuts }

// Restores returns the number of power-on commands processed.
func (p *PSU) Restores() int { return p.restores }

// Connect attaches a device to the rail, modelled as an ohmic load.
func (p *PSU) Connect(ohms float64) {
	if ohms <= 0 {
		panic("power: load resistance must be positive")
	}
	p.loads = append(p.loads, ohms)
	p.replanAll()
}

// Tau returns the current discharge time constant in seconds, accounting
// for the loads in parallel with the bleed resistance.
func (p *PSU) Tau() float64 {
	g := 1.0 / p.cfg.BleedOhms
	for _, ohms := range p.loads {
		g += 1.0 / ohms
	}
	return p.cfg.Capacitance / g
}

// PowerOff cuts the supply; the rail begins its capacitive discharge from
// the present voltage.
func (p *PSU) PowerOff() {
	if !p.on {
		return
	}
	p.vAtSwitch = p.VoltageAt(p.k.Now())
	p.on = false
	p.switchedAt = p.k.Now()
	p.cuts++
	p.replanAll()
}

// PowerOn restores the supply; the rail ramps from the present voltage to
// nominal over the configured rise time.
func (p *PSU) PowerOn() {
	if p.on {
		return
	}
	p.vAtSwitch = p.VoltageAt(p.k.Now())
	p.on = true
	p.switchedAt = p.k.Now()
	p.restores++
	p.replanAll()
}

// VoltageAt computes the rail voltage at instant t (t at or after the last
// state change; earlier instants are answered for the current phase too,
// by extrapolation, and are only used by tests).
func (p *PSU) VoltageAt(t sim.Time) float64 {
	dt := t.Sub(p.switchedAt).Seconds()
	if dt < 0 {
		dt = 0
	}
	if p.on {
		if p.cfg.RiseTime <= 0 {
			return p.cfg.VNominal
		}
		rise := p.cfg.RiseTime.Seconds()
		v := p.vAtSwitch + (p.cfg.VNominal-p.vAtSwitch)*(dt/rise)
		if v > p.cfg.VNominal {
			v = p.cfg.VNominal
		}
		return v
	}
	return p.vAtSwitch * math.Exp(-dt/p.Tau())
}

// Voltage returns the rail voltage now.
func (p *PSU) Voltage() float64 { return p.VoltageAt(p.k.Now()) }

// NotifyBelow registers fn to run whenever the rail crosses v downward.
// If the rail is already below v the watch arms for the next crossing
// (after a power-on takes it back above).
func (p *PSU) NotifyBelow(v float64, fn func()) {
	p.addWatch(&watch{threshold: v, below: true, fn: fn})
}

// NotifyAbove registers fn to run whenever the rail crosses v upward.
func (p *PSU) NotifyAbove(v float64, fn func()) { p.addWatch(&watch{threshold: v, fn: fn}) }

func (p *PSU) addWatch(w *watch) {
	w.fire = func() {
		w.timer = sim.Timer{}
		w.fn()
	}
	p.watches = append(p.watches, w)
	p.replan(w)
}

// crossingDelay returns the time from now until the rail crosses w's
// threshold in w's direction, or ok=false if it never will in the current
// phase.
func (p *PSU) crossingDelay(w *watch) (sim.Duration, bool) {
	now := p.k.Now()
	v := p.VoltageAt(now)
	if w.below {
		if !p.on && v > w.threshold && w.threshold > 0 {
			secs := p.Tau() * math.Log(v/w.threshold)
			return sim.Seconds(secs), true
		}
		return 0, false
	}
	// Upward crossing: only while on and ramping.
	if p.on && v < w.threshold && w.threshold <= p.cfg.VNominal {
		if p.cfg.RiseTime <= 0 {
			return 0, true
		}
		rise := p.cfg.RiseTime.Seconds()
		frac := (w.threshold - v) / (p.cfg.VNominal - v)
		return sim.Seconds(rise * frac), true
	}
	return 0, false
}

func (p *PSU) replanAll() {
	for _, w := range p.watches {
		p.replan(w)
	}
}

func (p *PSU) replan(w *watch) {
	w.timer.Stop()
	w.timer = sim.Timer{}
	d, ok := p.crossingDelay(w)
	if !ok {
		return
	}
	w.timer = p.k.After(d, w.fire)
}
