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

// fillPages is the span fillRuns writes into: 16 GB of pages.
const fillPages = 16 << 30 >> PageShift

// fillRuns stores about 30k pages into tab in 128-page runs, each at a
// pseudo-random start over fillPages, the shape the simulator's 4 KiB to
// 1 MiB random writes leave in a drive's maps. Run r stores r+1 in every
// page; each, when not nil, is called after every run with its start
// and value.
func fillRuns(tab *Table[int32], each func(start LPN, v int32)) {
	for r := uint64(0); r < 234; r++ {
		start, v := LPN(r*2654435761%(fillPages-128)), int32(r)+1
		for i := LPN(0); i < 128; i++ {
			*tab.Ref(start + i) = v
		}
		if each != nil {
			each(start, v)
		}
	}
}

// BenchmarkTableFill fills one fresh table per op (see fillRuns), so
// B/op and allocs/op are what a drive's page table costs a run.
func BenchmarkTableFill(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var tab Table[int32]
		fillRuns(&tab, nil)
		benchSink += uint64(tab.Get(0))
	}
}
