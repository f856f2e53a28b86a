package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of the
// samples and how many samples lie strictly beyond its rank.
func percentile(samples []time.Duration, q float64) (time.Duration, int) {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// tail returns the q-quantile of the samples and how many lie beyond it,
// or an error when fewer than minBeyond do, so a reported tail is never
// one or two unlucky experiments.
func tail(samples []time.Duration, q float64) (time.Duration, int, error) {
	if len(samples) == 0 {
		return 0, 0, fmt.Errorf("no samples")
	}
	v, beyond := percentile(samples, q)
	if beyond < minBeyond {
		return 0, 0, fmt.Errorf("p%.0f of %d samples has %d beyond it, want at least %d",
			100*q, len(samples), beyond, minBeyond)
	}
	return v, beyond, nil
}

// samplesFor returns the fewest samples that put minBeyond beyond the
// q-quantile.
func samplesFor(q float64) int {
	n := 1
	for {
		if _, beyond := percentile(make([]time.Duration, n), q); beyond >= minBeyond {
			return n
		}
		n++
	}
}

// median returns the median of the samples (the lower middle one for an
// even count, so always a measured value).
func median(samples []time.Duration) time.Duration {
	v, _ := percentile(samples, 0.5)
	return v
}

// sum returns the total of the samples.
func sum(samples []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range samples {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
