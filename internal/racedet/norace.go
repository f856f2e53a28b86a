//go:build !race

// Package racedet reports whether the race detector is compiled in. The
// race runtime allocates for its own bookkeeping, so zero-allocation
// guards skip themselves when Enabled is true.
package racedet

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
