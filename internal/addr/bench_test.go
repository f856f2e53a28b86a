package addr

import "testing"

// benchPages is the span the Table benchmarks address: 4 GiB of pages,
// every path made before the timer starts, so no op allocates.
const benchPages = 1 << 20

var benchSink uint64

// benchTable alternates runs of run consecutive pages between stores
// through Ref and reads through Get, each run at a pseudo-random start.
// One op is one page.
func benchTable(b *testing.B, run int) {
	var tab Table[uint64]
	for l := LPN(0); l < benchPages; l += leafSize {
		tab.Ref(l)
	}
	var sum uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := uint64(i / run)
		l := LPN(r*2654435761%(benchPages-uint64(run))) + LPN(i%run)
		if r&1 == 0 {
			*tab.Ref(l) = uint64(i)
		} else {
			sum += tab.Get(l)
		}
	}
	benchSink = sum
}

// BenchmarkTableRun walks 64-page runs, the shape of the simulator's
// multi-page requests: most lookups land in the leaf of the one before.
func BenchmarkTableRun(b *testing.B) { benchTable(b, 64) }

// BenchmarkTableScatter looks up single pages at random, where no lookup
// shares a leaf with the one before.
func BenchmarkTableScatter(b *testing.B) { benchTable(b, 1) }
