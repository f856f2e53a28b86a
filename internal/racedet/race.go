//go:build race

package racedet

// Enabled reports whether the binary was built with the race detector.
const Enabled = true
