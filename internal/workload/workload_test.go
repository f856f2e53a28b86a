package workload

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"powerfail/internal/addr"
	"powerfail/internal/sim"
)

func gen(t *testing.T, spec Spec) *Generator {
	t.Helper()
	g, err := NewGenerator(spec, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSizesWithinBounds(t *testing.T) {
	g := gen(t, Spec{WSSBytes: 1 << 30, MinSize: 4 << 10, MaxSize: 1 << 20})
	minP, maxP := 1, 256
	sawSmall, sawBig := false, false
	for i := 0; i < 5000; i++ {
		it := g.Next()
		if it.Pages < minP || it.Pages > maxP {
			t.Fatalf("pages = %d out of [%d,%d]", it.Pages, minP, maxP)
		}
		if it.Pages <= 8 {
			sawSmall = true
		}
		if it.Pages >= 248 {
			sawBig = true
		}
	}
	if !sawSmall || !sawBig {
		t.Fatal("size distribution did not span the range")
	}
}

func TestFixedSize(t *testing.T) {
	g := gen(t, Spec{WSSBytes: 1 << 30, FixedSize: 64 << 10})
	for i := 0; i < 100; i++ {
		if it := g.Next(); it.Pages != 16 {
			t.Fatalf("pages = %d, want 16", it.Pages)
		}
	}
}

func TestAddressesWithinWSS(t *testing.T) {
	wss := int64(1 << 28) // 256 MB = 65536 pages
	g := gen(t, Spec{WSSBytes: wss, MinSize: 4 << 10, MaxSize: 1 << 20})
	limit := addr.LPN(wss >> addr.PageShift)
	for i := 0; i < 5000; i++ {
		it := g.Next()
		if it.LPN < 0 || it.LPN+addr.LPN(it.Pages) > limit {
			t.Fatalf("request [%d,+%d) escapes WSS of %d pages", it.LPN, it.Pages, limit)
		}
	}
}

func TestReadPctMix(t *testing.T) {
	g := gen(t, Spec{WSSBytes: 1 << 30, FixedSize: 4 << 10, ReadPct: 30})
	reads := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.Next().Op == OpRead {
			reads++
		}
	}
	if frac := float64(reads) / n; math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("read fraction = %.3f, want ~0.30", frac)
	}
}

func TestWritesCarryData(t *testing.T) {
	g := gen(t, Spec{WSSBytes: 1 << 30, FixedSize: 16 << 10})
	it := g.Next()
	if it.Op != OpWrite {
		t.Fatal("expected write")
	}
	if it.Data.Pages() != it.Pages {
		t.Fatal("payload size mismatch")
	}
}

func TestSequentialAdvancesAndWraps(t *testing.T) {
	g := gen(t, Spec{WSSBytes: 1 << 20, FixedSize: 256 << 10, Pattern: Sequential}) // 4 requests per lap
	var last addr.LPN = -1
	wrapped := false
	for i := 0; i < 12; i++ {
		it := g.Next()
		if it.LPN <= last && it.LPN == 0 {
			wrapped = true
		} else if it.LPN != last+addr.LPN(0) && last >= 0 && it.LPN != last+64 && it.LPN != 0 {
			t.Fatalf("sequential cursor jumped: %d -> %d", last, it.LPN)
		}
		last = it.LPN
	}
	if !wrapped {
		t.Fatal("sequential stream never wrapped")
	}
}

func TestPairSequences(t *testing.T) {
	cases := []struct {
		mode          SeqMode
		first, second Op
	}{
		{RAR, OpRead, OpRead},
		{RAW, OpWrite, OpRead},
		{WAR, OpRead, OpWrite},
		{WAW, OpWrite, OpWrite},
	}
	for _, c := range cases {
		g := gen(t, Spec{WSSBytes: 1 << 30, FixedSize: 8 << 10, Sequence: c.mode})
		for pair := 0; pair < 50; pair++ {
			a, b := g.Next(), g.Next()
			if a.Op != c.first || b.Op != c.second {
				t.Fatalf("%v: pair ops = %v,%v want %v,%v", c.mode, a.Op, b.Op, c.first, c.second)
			}
			if a.LPN != b.LPN || a.Pages != b.Pages {
				t.Fatalf("%v: second request must repeat the address", c.mode)
			}
			if c.mode == WAW && a.Data.Equal(b.Data) {
				t.Fatalf("WAW pair wrote identical data")
			}
		}
	}
}

func TestArrivalPacing(t *testing.T) {
	g := gen(t, Spec{WSSBytes: 1 << 30, FixedSize: 4 << 10, IOPS: 1000})
	var total sim.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		total += g.NextArrival()
	}
	mean := total.Seconds() / n
	if math.Abs(mean-0.001) > 0.0001 {
		t.Fatalf("mean inter-arrival = %.6fs, want ~0.001", mean)
	}
	closed := gen(t, Spec{WSSBytes: 1 << 30, FixedSize: 4 << 10})
	if closed.NextArrival() != 0 {
		t.Fatal("closed-loop spec should have zero arrival gap")
	}
}

func TestValidation(t *testing.T) {
	bad := []Spec{
		{WSSBytes: 0, FixedSize: 4096},
		{WSSBytes: 1 << 30, MinSize: 0, MaxSize: 0},
		{WSSBytes: 1 << 30, MinSize: 8192, MaxSize: 4096},
		{WSSBytes: 1 << 30, FixedSize: -1},
		{WSSBytes: 1 << 30, FixedSize: 4096, ReadPct: 101},
		{WSSBytes: 1 << 30, FixedSize: 4096, IOPS: -1},
		{WSSBytes: 1 << 30, FixedSize: 4096, IOPS: 1e10}, // gaps under the 1 ns tick
		{WSSBytes: 1 << 20, FixedSize: 2 << 20},          // request larger than WSS
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
	if DefaultSpec().Validate() != nil {
		t.Fatal("default spec invalid")
	}
	if err := (Spec{WSSBytes: 1 << 30, FixedSize: 4096, IOPS: 1e9}).Validate(); err != nil {
		t.Fatalf("1e9 IOPS, a 1 ns mean gap, rejected: %v", err)
	}
}

// Property: every generated request stays inside the working set and is a
// whole number of pages, for arbitrary spec sizes.
func TestQuickGeneratorBounds(t *testing.T) {
	f := func(wssMB uint8, maxKB uint16, seed uint16) bool {
		wss := (int64(wssMB%64) + 2) << 20
		max := (int(maxKB%1024) + 4) << 10
		if int64(max) > wss {
			max = int(wss)
		}
		spec := Spec{WSSBytes: wss, MinSize: 4 << 10, MaxSize: max}
		if spec.Validate() != nil {
			return true // skip invalid combinations
		}
		g, err := NewGenerator(spec, sim.NewRNG(uint64(seed)))
		if err != nil {
			return false
		}
		limit := addr.LPN(wss >> addr.PageShift)
		for i := 0; i < 50; i++ {
			it := g.Next()
			if it.Pages < 1 || it.LPN < 0 || it.LPN+addr.LPN(it.Pages) > limit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Fatal("op strings")
	}
	if Random.String() != "random" || Sequential.String() != "sequential" {
		t.Fatal("pattern strings")
	}
	for _, m := range []SeqMode{SeqNone, RAR, RAW, WAR, WAW} {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var back SeqMode
		if err := json.Unmarshal(b, &back); err != nil || back != m {
			t.Fatalf("seq mode %v round-tripped through %s to %v (err %v)", m, b, back, err)
		}
	}
	for _, bad := range []string{`"raw"`, `"XAW"`, `""`, `3`} {
		var m SeqMode
		if err := json.Unmarshal([]byte(bad), &m); err == nil {
			t.Fatalf("seq mode %s accepted as %v", bad, m)
		}
	}
	if DefaultSpec().String() == "" {
		t.Fatal("spec string empty")
	}
	if (Spec{WSSBytes: 1 << 30, FixedSize: 4096, Sequence: WAW}).String() == "" {
		t.Fatal("spec string empty")
	}
}

func TestIssuedCounter(t *testing.T) {
	g := gen(t, Spec{WSSBytes: 1 << 30, FixedSize: 4096})
	for i := 0; i < 7; i++ {
		g.Next()
	}
	if g.Issued() != 7 {
		t.Fatalf("issued = %d", g.Issued())
	}
	if g.Spec().FixedSize != 4096 {
		t.Fatal("Spec accessor wrong")
	}
}
