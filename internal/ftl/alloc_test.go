package ftl

import (
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/flash"
	"powerfail/internal/racedet"
	"powerfail/internal/sim"
)

// bigBlockFTL builds an FTL whose blocks are large enough that the
// steady-state loops below never open a new block: a block's first open
// allocates its reverse-map array (and the chip its page array), once per
// block lifetime, which the zero-allocation guards leave out.
func bigBlockFTL(tb testing.TB) (*flash.Chip, *FTL) {
	tb.Helper()
	chip, err := flash.New(flash.Config{
		Geometry:        flash.Geometry{Dies: 2, PlanesPerDie: 2, BlocksPerPlane: 8, PagesPerBlock: 8192},
		Cell:            flash.MLC,
		Timing:          flash.TimingFor(flash.MLC),
		ECC:             flash.ECCConfig{Scheme: "BCH", CorrectPerKB: 40},
		WearBERMult:     4,
		EnduranceCycles: 3000,
	}, sim.NewRNG(1))
	if err != nil {
		tb.Fatal(err)
	}
	f, err := New(chip, DefaultConfig(4096, 2))
	if err != nil {
		tb.Fatal(err)
	}
	return chip, f
}

// writeBatch maps one journal batch of host writes over a fixed set of
// logical pages, programming each page when program is set.
func writeBatch(tb testing.TB, chip *flash.Chip, f *FTL, round int, program bool) {
	n := f.Config().JournalBatchPages
	for i := 0; i < n; i++ {
		t, err := f.BeginWrite(addr.LPN(i * 3))
		if err != nil {
			tb.Fatal(err)
		}
		if program {
			if err := chip.Program(t.PPN, content.Fingerprint(round*n+i+1)); err != nil {
				tb.Fatal(err)
			}
		}
		f.CompleteWrite(t, sim.Time(round))
	}
}

// writeCommitRound is one steady-state journal round: a batch of writes,
// then the commit that makes it durable.
func writeCommitRound(tb testing.TB, chip *flash.Chip, f *FTL, round int) {
	writeBatch(tb, chip, f, round, false)
	f.CommitJournal()
}

// crashRound crashes with one programmed, uncommitted batch at risk.
func crashRound(tb testing.TB, chip *flash.Chip, f *FTL, round int) {
	writeBatch(tb, chip, f, round, true)
	f.Crash(sim.Time(round))
}

func TestWriteCommitAllocatesNothing(t *testing.T) {
	if racedet.Enabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	chip, f := bigBlockFTL(t)
	round := 0
	for ; round < 8; round++ {
		writeCommitRound(t, chip, f, round)
	}
	if n := testing.AllocsPerRun(10, func() { round++; writeCommitRound(t, chip, f, round) }); n != 0 {
		t.Fatalf("BeginWrite → CompleteWrite → CommitJournal made %v allocs per batch, want 0", n)
	}
}

func TestCrashAllocatesNothing(t *testing.T) {
	if racedet.Enabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	chip, f := bigBlockFTL(t)
	round := 0
	for ; round < 4; round++ {
		crashRound(t, chip, f, round)
	}
	if n := testing.AllocsPerRun(10, func() { round++; crashRound(t, chip, f, round) }); n != 0 {
		t.Fatalf("a batch of writes and a Crash made %v allocs, want 0", n)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// benchRounds times round on a warmed FTL, replacing the FTL (timer
// stopped) before a round could open a new block.
func benchRounds(b *testing.B, round func(testing.TB, *flash.Chip, *FTL, int)) {
	var chip *flash.Chip
	var f *FTL
	warm := func() {
		chip, f = bigBlockFTL(b)
		for r := 0; r < 8; r++ {
			round(b, chip, f, r)
		}
	}
	warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.nextIdx[0]+f.cfg.JournalBatchPages > f.geo.PagesPerBlock {
			b.StopTimer()
			warm()
			b.StartTimer()
		}
		round(b, chip, f, i+8)
	}
}

func BenchmarkWriteCommitRound(b *testing.B) { benchRounds(b, writeCommitRound) }

func BenchmarkCrashRound(b *testing.B) { benchRounds(b, crashRound) }
