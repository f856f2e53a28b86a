package sim

import "math"

// RNG is a small, fast, deterministic random number generator based on the
// splitmix64 sequence. It is not safe for concurrent use; the simulation is
// single-threaded by design. Independent streams for separate components
// are derived with Fork so that adding randomness consumption to one
// component does not perturb another.
type RNG struct {
	state uint64
	// Poisson's last λ and its math.Exp(-λ): callers draw from one λ
	// many times over.
	expLambda, expNeg float64
}

// NewRNG returns a generator seeded with seed. Distinct seeds yield
// independent-looking sequences; seed 0 is valid.
func NewRNG(seed uint64) *RNG {
	r := &RNG{state: seed}
	// Warm the state so that small seeds diverge immediately.
	r.Uint64()
	return r
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Fork derives an independent generator labelled by label. Forking with the
// same label from generators in the same state yields the same stream.
func (r *RNG) Fork(label string) *RNG {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return NewRNG(r.Uint64() ^ h)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Int63n returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	if n&(n-1) == 0 { // power of two
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int { return int(r.Int63n(int64(n))) }

// IntRange returns a uniform integer in [lo, hi] inclusive.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("sim: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Prob reports true with probability p (clamped to [0,1]).
func (r *RNG) Prob(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// DurationRange returns a uniform duration in [lo, hi] inclusive.
func (r *RNG) DurationRange(lo, hi Duration) Duration {
	if hi < lo {
		panic("sim: DurationRange with hi < lo")
	}
	return lo + Duration(r.Int63n(int64(hi-lo)+1))
}

// ExpMean returns an exponentially distributed value with the given mean.
func (r *RNG) ExpMean(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Norm returns a normally distributed value with mean mu and standard
// deviation sigma, via the Box-Muller transform.
func (r *RNG) Norm(mu, sigma float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mu + sigma*z
}

// Poisson returns a Poisson-distributed count with mean lambda. Knuth's
// method is used for small lambda and a normal approximation for large.
func (r *RNG) Poisson(lambda float64) int {
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
	// Knuth's loop multiplies uniforms until the product falls to e^-λ;
	// most reads have λ far below 1 and stop at the first draw. Since
	// e^-λ > 1-λ and math.Exp is within one ulp, a first draw below
	// 1-λ-2^-50 (the margin covers both roundings) is below the computed
	// e^-λ too, so the loop would return 0: skip the Exp. The value and
	// the draws consumed are those of the plain loop.
	u := r.Float64()
	if u < 1-lambda-0x1p-50 {
		return 0
	}
	if lambda != r.expLambda {
		r.expLambda, r.expNeg = lambda, math.Exp(-lambda)
	}
	l := r.expNeg
	k := 0
	for p := u; p > l; p *= r.Float64() {
		k++
	}
	return k
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomises the order of n elements using the provided swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}
