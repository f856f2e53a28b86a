package power

import (
	"fmt"

	"powerfail/internal/sim"
)

// ATX models the PSU's ATX controller connector. Pin 16 (PS_ON#) is active
// low: driving it high cuts the supply output, pulling it low restores it.
// This mirrors Fig. 3 of the paper, where Arduino pin 13 drives pin 16.
type ATX struct {
	psu   *PSU
	pin16 bool // true = high = supply off
}

// NewATX wires an ATX controller to the supply, with PS_ON# asserted
// (supply on).
func NewATX(psu *PSU) *ATX { return &ATX{psu: psu, pin16: false} }

// Pin16 reports the PS_ON# level (true = high = off).
func (a *ATX) Pin16() bool { return a.pin16 }

// SetPin16 drives PS_ON#. High cuts the output; low restores it.
func (a *ATX) SetPin16(high bool) {
	if a.pin16 == high {
		return
	}
	a.pin16 = high
	if high {
		a.psu.PowerOff()
	} else {
		a.psu.PowerOn()
	}
}

// Arduino command bytes understood by the microcontroller firmware: the
// scheduler sends CmdCut to inject a fault and CmdRestore to end it.
const (
	CmdCut     byte = '1' // drive pin 13 high -> PS_ON# high -> supply off
	CmdRestore byte = '0' // drive pin 13 low  -> PS_ON# low  -> supply on
)

// Arduino models the UNO board (ATmega328) from the paper's hardware part.
// Commands arrive over a serial link and take effect SerialLatency later
// (USB-serial transfer plus firmware loop), when pin 13 changes level.
type Arduino struct {
	k        *sim.Kernel
	pin13    bool
	wire     func(high bool)
	commands int
	// setLow and setHigh apply a restore and a cut, bound once.
	setLow, setHigh func()
}

// NewArduino builds the board. The wire callback is invoked whenever pin
// 13 changes level; wire it to ATX.SetPin16 to complete the hardware chain.
func NewArduino(k *sim.Kernel, wire func(high bool)) *Arduino {
	a := &Arduino{k: k, wire: wire}
	a.setLow = func() { a.set(false) }
	a.setHigh = func() { a.set(true) }
	return a
}

// SerialLatency approximates one command byte at 115200 baud plus the
// firmware polling loop.
const SerialLatency = 200 * sim.Microsecond

// Pin13 reports the current output pin level.
func (a *Arduino) Pin13() bool { return a.pin13 }

// Commands returns how many commands the firmware has processed.
func (a *Arduino) Commands() int { return a.commands }

// Send transmits a command byte from the host. The pin change takes effect
// after the serial latency, like the real firmware's receive-then-set loop.
func (a *Arduino) Send(cmd byte) error {
	switch cmd {
	case CmdCut:
		a.k.After(SerialLatency, a.setHigh)
	case CmdRestore:
		a.k.After(SerialLatency, a.setLow)
	default:
		return fmt.Errorf("power: unknown arduino command %q", cmd)
	}
	return nil
}

// set is the firmware loop acting on one received command.
func (a *Arduino) set(high bool) {
	a.commands++
	if a.pin13 == high {
		return
	}
	a.pin13 = high
	a.wire(high)
}
