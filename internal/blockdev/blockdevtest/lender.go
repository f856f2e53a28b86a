// Package blockdevtest holds test doubles for the blockdev.Device
// contract.
package blockdevtest

import (
	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/sim"
)

// Poison is what a Lender writes over a read result once its loan ends.
// It is neither Zero nor a fingerprint a test is likely to write.
const Poison content.Fingerprint = 0xbad0_bad0_bad0_bad0

// Lender is a hostile lender: a Drive that holds its reads to the letter
// of blockdev.Device's loan. It lends each successful read result from a
// buffer of its own and overwrites that buffer with Poison in an event
// scheduled right after done returns, the first instant the contract
// lets a lender reuse it. A holder that keeps lent pages past the window
// without copying them reads Poison.
type Lender struct {
	blockdev.Drive
	k *sim.Kernel
	// Lent counts the read results lent so far.
	Lent int
}

// NewLender wraps d, whose kernel is k.
func NewLender(k *sim.Kernel, d blockdev.Drive) *Lender { return &Lender{Drive: d, k: k} }

// Submit implements blockdev.Device.
func (l *Lender) Submit(op blockdev.Op, lpn addr.LPN, pages int, data content.Data, done func(error, content.Data)) {
	if op != blockdev.OpRead {
		l.Drive.Submit(op, lpn, pages, data, done)
		return
	}
	l.Drive.Submit(op, lpn, pages, data, func(err error, res content.Data) {
		if err != nil {
			done(err, res)
			return
		}
		buf := make([]content.Fingerprint, res.Pages())
		res.CopyTo(buf)
		l.Lent++
		done(nil, content.Wrap(buf))
		l.k.After(0, func() {
			for i := range buf {
				buf[i] = Poison
			}
		})
	})
}
