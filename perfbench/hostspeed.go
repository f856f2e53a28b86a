package main

import (
	"fmt"
	"math"
	"syscall"
	"time"
)

// The end-to-end timings are reported at a fixed host speed. This
// benchmark runs on shared hosts whose memory system slows by up to a
// factor of 1.5 for seconds to minutes when neighbours load it, with
// process CPU time still equal to wall time, so neither longer runs nor a
// CPU-time clock remove the drift. A probe that uses none of the program
// runs between experiments: it maps fresh anonymous memory, takes a
// first-touch page fault on each page and unmaps it again. The program
// takes tens of thousands of such faults a second as the Go heap regrows
// after the scavenger returns pages, and of the reference loops tried
// (ALU, streaming stores, random loads, pointer chasing, sorting, page
// faults) the faults tracked experiment time most closely, on every
// workload. Each experiment's times are scaled by
// (refNominal / mean of the probes just before and after it)^hostElasticity.
// On a host running at its nominal speed the scaled times equal the
// measured ones; the measured figures are printed beside them.

// refNominal is the probe's time on the baseline host (2 vCPUs of an
// Intel Xeon, Linux 6.18) while it was not slowed down.
const refNominal = 2500 * time.Microsecond

// hostElasticity is how steeply experiment time follows the probe's time
// on the baseline host: log-log slopes of 3 s medians ranged from 0.9 in
// mild drift to 1.8 in the strongest slow stretches, and 1.5 gave the
// smallest run-to-run spread over the three workloads together.
const hostElasticity = 1.5

const (
	probeBytes = 4 << 20
	pageBytes  = 4 << 10
)

// probeHost does the reference work once and returns its wall time.
func probeHost() (time.Duration, error) {
	t0 := time.Now()
	b, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return 0, fmt.Errorf("host probe: mmap %d bytes: %w", probeBytes, err)
	}
	for i := 0; i < len(b); i += pageBytes {
		b[i] = 1
	}
	if err := syscall.Munmap(b); err != nil {
		return 0, fmt.Errorf("host probe: munmap: %w", err)
	}
	return time.Since(t0), nil
}

// atNominal scales d, measured between two probes that took before and
// after, to the reference host speed.
func atNominal(d, before, after time.Duration) time.Duration {
	return time.Duration(float64(d) * math.Pow(float64(2*refNominal)/float64(before+after), hostElasticity))
}
