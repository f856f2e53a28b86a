package sim

import (
	"math"
	"testing"
)

// knuthPoisson is Poisson without the early return: Knuth's loop run in
// full, the reference the fast path must match draw for draw.
func knuthPoisson(r *RNG, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		v := int(math.Round(r.Norm(lambda, math.Sqrt(lambda))))
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// poissonLambdas spans the tiny rates of clean reads, the edges of the
// double format near 1, and the top of Knuth's range.
var poissonLambdas = []float64{1e-300, 1e-17, 0x1p-53, 1e-8, 0.33, 0.999, 1, 1.5, 63.9, 64}

// unmix inverts splitmix64's output function.
func unmix(z uint64) uint64 {
	unshift := func(y uint64, s uint) uint64 {
		x := y
		for i := s; i < 64; i += s {
			x = y ^ x>>s
		}
		return x
	}
	inv := func(a uint64) uint64 { // a odd: Newton's iteration mod 2^64
		x := a
		for range 5 {
			x *= 2 - a*x
		}
		return x
	}
	z = unshift(z, 31)
	z *= inv(0x94d049bb133111eb)
	z = unshift(z, 27)
	z *= inv(0xbf58476d1ce4e5b9)
	return unshift(z, 30)
}

// rngAt returns a generator whose next Float64 is u, which must be a
// multiple of 2^-53 in [0, 1).
func rngAt(u float64) *RNG {
	m := uint64(u * (1 << 53))
	return &RNG{state: unmix(m<<11) - 0x9e3779b97f4a7c15}
}

func TestRNGAtDrawsU(t *testing.T) {
	for _, u := range []float64{0, 0.5, 1 - 0x1p-53, 0x1p-53, 0.25 + 0x1p-40} {
		if got := rngAt(u).Float64(); got != u {
			t.Fatalf("rngAt(%v).Float64() = %v", u, got)
		}
	}
}

// TestPoissonMatchesKnuth checks Poisson against the plain Knuth loop: the
// same value and the same next draw, so the fast path consumes exactly
// the draws the loop does. Random seeds cover the bulk; first draws placed
// ulps either side of the fast-path threshold and of the computed e^-λ
// cover the edges random seeds never reach.
func TestPoissonMatchesKnuth(t *testing.T) {
	const seeds = 100_000
	check := func(lambda float64, a, b *RNG, what string) {
		t.Helper()
		got, want := a.Poisson(lambda), knuthPoisson(b, lambda)
		if got != want {
			t.Fatalf("Poisson(%g) %s = %d, Knuth's loop gives %d", lambda, what, got, want)
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Poisson(%g) %s consumed a different number of draws", lambda, what)
		}
	}
	for _, lambda := range poissonLambdas {
		for seed := range seeds {
			check(lambda, NewRNG(uint64(seed)), NewRNG(uint64(seed)), "on a random seed")
		}
		for _, edge := range []float64{1 - lambda - 0x1p-50, math.Exp(-lambda)} {
			if edge <= 0 {
				continue
			}
			c := math.Floor(edge*(1<<53)) / (1 << 53)
			for d := -64; d <= 64; d++ {
				u := c + float64(d)*0x1p-53
				if u < 0 || u >= 1 {
					continue
				}
				check(lambda, rngAt(u), rngAt(u), "at an edge draw")
			}
		}
	}

	// Poisson remembers e^-λ of its last λ, which the fresh generators
	// above never reuse. One generator pair over repeated and alternating
	// λ, including neighbours one ulp apart, makes the memo hit and miss.
	up := math.Nextafter(1, 2)
	seq := []float64{1, 1, 1, up, 1, up, up, 0.999, 1.5, 1.5, 0.33, 63.9, 63.9, 1, 64, 1, 1e-8, up}
	a, b := NewRNG(1), NewRNG(1)
	for range seeds / len(seq) {
		for _, lambda := range seq {
			check(lambda, a, b, "on a reused generator")
		}
	}
	// A first draw at the edge of e^-λ, right after a call with the λ one
	// ulp away: a memo matched loosely would use the neighbour's e^-λ.
	for _, pair := range [][2]float64{{1, up}, {up, 1}, {1.5, math.Nextafter(1.5, 0)}} {
		prev, lambda := pair[0], pair[1]
		c := math.Floor(math.Exp(-lambda)*(1<<53)) / (1 << 53)
		for d := -64; d <= 64; d++ {
			u := c + float64(d)*0x1p-53
			a, b := rngAt(u), rngAt(u)
			a.Poisson(prev) // leaves prev's e^-λ in the memo
			a.state = b.state
			check(lambda, a, b, "at an edge draw after a neighbouring λ")
		}
	}
}
