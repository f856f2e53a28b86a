package array

import (
	"errors"
	"math/bits"
	"testing"

	"powerfail/internal/content"
	"powerfail/internal/sim"
)

func TestGFAlgebra(t *testing.T) {
	// exp/log tables invert each other.
	for a := 1; a < 256; a++ {
		if int(gfExp[gfLog[a]]) != a {
			t.Fatalf("exp/log mismatch at %d", a)
		}
	}
	// Multiplication: identity, commutativity, inverse, distributivity
	// over XOR (GF addition) on a sampled grid.
	for a := 0; a < 256; a += 7 {
		ab := byte(a)
		if gfMul(ab, 1) != ab {
			t.Fatalf("1 is not the multiplicative identity for %d", a)
		}
		if ab != 0 {
			if gfMul(ab, gfInv(ab)) != 1 {
				t.Fatalf("a*inv(a) != 1 for %d", a)
			}
		}
		for b := 0; b < 256; b += 11 {
			bb := byte(b)
			if gfMul(ab, bb) != gfMul(bb, ab) {
				t.Fatalf("multiplication not commutative at %d,%d", a, b)
			}
			for c := 0; c < 256; c += 29 {
				cb := byte(c)
				if gfMul(ab, bb^cb) != gfMul(ab, bb)^gfMul(ab, cb) {
					t.Fatalf("not distributive at %d,%d,%d", a, b, c)
				}
			}
		}
	}
}

func TestGFMulFPPerLane(t *testing.T) {
	// Multiplying a fingerprint is multiplying each of its 8 byte lanes.
	rng := sim.NewRNG(41)
	data := content.Random(rng, 64)
	for i := 0; i < 64; i++ {
		f := uint64(data.Page(i))
		c := byte(i*5 + 1)
		got := gfMulFP(c, f)
		for sh := uint(0); sh < 64; sh += 8 {
			want := gfMul(c, byte(f>>sh))
			if byte(got>>sh) != want {
				t.Fatalf("lane %d of gfMulFP(%d, %x): got %x want %x", sh/8, c, f, byte(got>>sh), want)
			}
		}
	}
}

// TestCodeReconstructAllPatterns pins the MDS property exhaustively for
// every geometry the figures use: any pattern of at most k erasures
// round-trips exactly, and any larger pattern reports ErrTooManyErasures.
func TestCodeReconstructAllPatterns(t *testing.T) {
	geometries := []struct{ m, k int }{
		{4, 1}, // raid5x5
		{3, 2},
		{4, 2}, // raid6x6
		{8, 3}, // rs8+3
		{6, 4},
	}
	for _, g := range geometries {
		c := newCode(g.m, g.k)
		n := g.m + g.k
		data := make([]content.Fingerprint, g.m)
		src := content.Random(sim.NewRNG(uint64(g.m*100+g.k)), g.m)
		for i := range data {
			data[i] = src.Page(i)
		}
		parity := c.Encode(data)
		full := append(append([]content.Fingerprint{}, data...), parity...)

		shards := make([]content.Fingerprint, n)
		present := make([]bool, n)
		for mask := 1; mask < 1<<n; mask++ {
			missing := bits.OnesCount(uint(mask))
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					shards[i], present[i] = 0, false
				} else {
					shards[i], present[i] = full[i], true
				}
			}
			err := c.Reconstruct(shards, present)
			if missing > g.k {
				var tooMany ErrTooManyErasures
				if !errors.As(err, &tooMany) || tooMany.Missing != missing {
					t.Fatalf("%d+%d mask %b: want ErrTooManyErasures(%d), got %v", g.m, g.k, mask, missing, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%d+%d mask %b: reconstruct failed: %v", g.m, g.k, mask, err)
			}
			for i := 0; i < n; i++ {
				if shards[i] != full[i] {
					t.Fatalf("%d+%d mask %b: shard %d reconstructed to %x, want %x", g.m, g.k, mask, i, shards[i], full[i])
				}
			}
		}
	}
}

// TestCodeK1IsXOR pins that the single-parity code is plain XOR, so
// RAID-5 is exactly the k = 1 point of the coded path.
func TestCodeK1IsXOR(t *testing.T) {
	c := newCode(4, 1)
	data := []content.Fingerprint{0x1122334455667788, 0xa5a5a5a5a5a5a5a5, 0xdeadbeefcafef00d, 0x0123456789abcdef}
	var x uint64
	for _, d := range data {
		x ^= uint64(d)
	}
	if p := c.Encode(data); uint64(p[0]) != x {
		t.Fatalf("k=1 parity %x, want plain XOR %x", p[0], x)
	}
}

func TestCodeGeometryPanics(t *testing.T) {
	for _, g := range []struct{ m, k int }{{0, 1}, {1, 0}, {250, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("newCode(%d, %d) did not panic", g.m, g.k)
				}
			}()
			newCode(g.m, g.k)
		}()
	}
}
