package content

import (
	"testing"
	"testing/quick"

	"powerfail/internal/sim"
)

func TestFromBytesZero(t *testing.T) {
	if FromBytes(nil) != Zero {
		t.Fatal("nil slice should fingerprint to Zero")
	}
	if FromBytes(make([]byte, 4096)) != Zero {
		t.Fatal("all-zero page should fingerprint to Zero")
	}
	if FromBytes([]byte{1}) == Zero {
		t.Fatal("non-zero content must not map to Zero")
	}
}

func TestFromBytesDistinguishesContent(t *testing.T) {
	a := FromBytes([]byte("hello world"))
	b := FromBytes([]byte("hello worle"))
	if a == b {
		t.Fatal("different content, same fingerprint")
	}
	if a != FromBytes([]byte("hello world")) {
		t.Fatal("fingerprint not deterministic")
	}
}

func TestMixProperties(t *testing.T) {
	r := sim.NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := Fingerprint(r.Uint64())
		salt := r.Uint64()
		g := Mix(f, salt)
		if g == f {
			t.Fatalf("Mix(%x, %x) returned the input", f, salt)
		}
		if g == Zero {
			t.Fatalf("Mix(%x, %x) returned Zero", f, salt)
		}
	}
	// Deterministic.
	if Mix(5, 7) != Mix(5, 7) {
		t.Fatal("Mix not deterministic")
	}
}

func TestRandomData(t *testing.T) {
	r := sim.NewRNG(2)
	d := Random(r, 16)
	if d.Pages() != 16 || d.Bytes() != 16*4096 {
		t.Fatal("Random size wrong")
	}
	for i := 0; i < d.Pages(); i++ {
		if d.Page(i) == Zero {
			t.Fatal("Random produced a Zero page")
		}
	}
}

func TestZeroes(t *testing.T) {
	d := Zeroes(4)
	for i := 0; i < 4; i++ {
		if d.Page(i) != Zero {
			t.Fatal("Zeroes produced non-zero page")
		}
	}
}

func TestSliceSharesContent(t *testing.T) {
	r := sim.NewRNG(3)
	d := Random(r, 10)
	s := d.Slice(2, 5)
	if s.Pages() != 5 {
		t.Fatal("Slice length wrong")
	}
	for i := 0; i < 5; i++ {
		if s.Page(i) != d.Page(i+2) {
			t.Fatal("Slice content wrong")
		}
	}
}

func TestCopyTo(t *testing.T) {
	d := Random(sim.NewRNG(5), 4)
	dst := make([]Fingerprint, 6)
	if n := d.CopyTo(dst[1:]); n != 4 {
		t.Fatalf("CopyTo copied %d pages, want 4", n)
	}
	if dst[0] != Zero || dst[5] != Zero || !Wrap(dst[1:5]).Equal(d) {
		t.Fatalf("CopyTo wrote %v, want %v at [1:5)", dst, d)
	}
	if n := d.CopyTo(dst[:2]); n != 2 || dst[1] != d.Page(1) {
		t.Fatalf("CopyTo into a short destination copied %d pages", n)
	}
}

func TestEqual(t *testing.T) {
	r := sim.NewRNG(4)
	d := Random(r, 8)
	if !d.Equal(d) {
		t.Fatal("Data not equal to itself")
	}
	e := Random(r, 8)
	if d.Equal(e) {
		t.Fatal("independent random Data compared equal")
	}
	if d.Equal(d.Slice(0, 7)) {
		t.Fatal("different lengths compared equal")
	}
}

func TestSumMatchesEquality(t *testing.T) {
	r := sim.NewRNG(5)
	d := Random(r, 8)
	cp := Make(func() []Fingerprint {
		out := make([]Fingerprint, 8)
		for i := range out {
			out[i] = d.Page(i)
		}
		return out
	}()...)
	if d.Sum() != cp.Sum() {
		t.Fatal("equal content, different sums")
	}
}

// Property: the sum of a concatenation depends only on the page sequence,
// so slicing and re-gathering preserves it.
func TestQuickSumCompositional(t *testing.T) {
	r := sim.NewRNG(6)
	f := func(nRaw uint8, cut uint8) bool {
		n := int(nRaw%30) + 2
		d := Random(r, n)
		k := int(cut) % (n - 1)
		if k == 0 {
			k = 1
		}
		re := make([]Fingerprint, n)
		d.Slice(0, k).CopyTo(re)
		d.Slice(k, n-k).CopyTo(re[k:])
		return Wrap(re).Sum() == d.Sum() && Wrap(re).Equal(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFromByteSlice(t *testing.T) {
	b := make([]byte, 4096*2+100)
	for i := range b {
		b[i] = byte(i) ^ byte(i>>8) // aperiodic over a page
	}
	d := FromByteSlice(b)
	if d.Pages() != 3 {
		t.Fatalf("Pages = %d, want 3", d.Pages())
	}
	if d.Page(0) == d.Page(1) {
		t.Fatal("distinct pages fingerprinted equal")
	}
	if FromByteSlice(nil).Pages() != 0 {
		t.Fatal("empty slice should produce empty Data")
	}
}

func TestStringDigest(t *testing.T) {
	d := Zeroes(3)
	if s := d.String(); s == "" {
		t.Fatal("String empty")
	}
}
