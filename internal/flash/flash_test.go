package flash

import (
	"testing"
	"testing/quick"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/sim"
)

func testChip(t *testing.T, mutate func(*Config)) *Chip {
	t.Helper()
	cfg := Config{
		Geometry:        Geometry{Dies: 2, PlanesPerDie: 2, BlocksPerPlane: 8, PagesPerBlock: 16},
		Cell:            MLC,
		Timing:          TimingFor(MLC),
		ECC:             ECCConfig{Scheme: "BCH", CorrectPerKB: 40},
		BaseBER:         0, // deterministic unless a test opts in
		WearBERMult:     4,
		EnduranceCycles: 3000,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGeometryMath(t *testing.T) {
	g := Geometry{Dies: 2, PlanesPerDie: 2, BlocksPerPlane: 8, PagesPerBlock: 16}
	if g.Blocks() != 32 || g.Pages() != 512 {
		t.Fatalf("blocks=%d pages=%d", g.Blocks(), g.Pages())
	}
	if g.CapacityBytes() != 512*addr.PageBytes {
		t.Fatal("capacity wrong")
	}
	p := g.PPNOf(5, 7)
	if g.BlockOf(p) != 5 || g.PageOf(p) != 7 {
		t.Fatal("PPN round trip failed")
	}
	if !g.Contains(p) || g.Contains(addr.PPN(g.Pages())) || g.Contains(-1) {
		t.Fatal("Contains wrong")
	}
}

func TestQuickGeometryRoundTrip(t *testing.T) {
	g := Geometry{Dies: 4, PlanesPerDie: 2, BlocksPerPlane: 100, PagesPerBlock: 64}
	f := func(bRaw, pRaw uint16) bool {
		b := int(bRaw) % g.Blocks()
		p := int(pRaw) % g.PagesPerBlock
		ppn := g.PPNOf(b, p)
		return g.BlockOf(ppn) == b && g.PageOf(ppn) == p && g.Contains(ppn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryForCapacity(t *testing.T) {
	g := GeometryForCapacity(1<<30, 9, 4, 2, 128)
	if g.CapacityBytes() < (1<<30)+(1<<30)*9/100 {
		t.Fatalf("derived geometry too small: %s", g)
	}
	if g.Validate() != nil {
		t.Fatal("derived geometry invalid")
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	c := testChip(t, nil)
	fp := content.Fingerprint(0xabcdef)
	if err := c.Program(0, fp); err != nil {
		t.Fatal(err)
	}
	res, err := c.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.FP != fp || res.Status != ReadClean {
		t.Fatalf("read = %+v", res)
	}
}

func TestProgramOrderEnforced(t *testing.T) {
	c := testChip(t, nil)
	if err := c.Program(1, 1); err != ErrProgramOrder {
		t.Fatalf("out-of-order program: %v", err)
	}
	if err := c.Program(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Program(0, 2); err == nil {
		t.Fatal("double program accepted")
	}
	if err := c.Program(2, 1); err != ErrProgramOrder {
		t.Fatalf("skip program: %v", err)
	}
}

func TestEraseResets(t *testing.T) {
	c := testChip(t, nil)
	for i := 0; i < 4; i++ {
		if err := c.Program(addr.PPN(i), content.Fingerprint(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Erase(0); err != nil {
		t.Fatal(err)
	}
	if c.EraseCount(0) != 1 || c.NextPage(0) != 0 {
		t.Fatal("erase bookkeeping wrong")
	}
	res, _ := c.Read(0)
	if res.FP != content.Zero {
		t.Fatal("erased page should read zero")
	}
	if err := c.Program(0, 9); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
}

func TestReadErasedAndUnbacked(t *testing.T) {
	c := testChip(t, nil)
	res, err := c.Read(100)
	if err != nil || res.FP != content.Zero || res.Status != ReadClean {
		t.Fatalf("unbacked read = %+v, %v", res, err)
	}
}

func TestBadAddresses(t *testing.T) {
	c := testChip(t, nil)
	if err := c.Program(addr.PPN(1<<40), 1); err != ErrBadAddress {
		t.Fatal("bad program address accepted")
	}
	if _, err := c.Read(-1); err != ErrBadAddress {
		t.Fatal("bad read address accepted")
	}
	if err := c.Erase(-1); err != ErrBadAddress {
		t.Fatal("bad erase accepted")
	}
	if err := c.ErasePartial(9999, 0.5); err != ErrBadAddress {
		t.Fatal("bad partial erase accepted")
	}
}

// TestUntouchedBlocksCostNothing: reading any block of a fresh chip, the
// last one included, sees it erased with zero counts and opens nothing;
// programming the last block opens it; erase bounds follow the geometry,
// not the blocks opened so far.
func TestUntouchedBlocksCostNothing(t *testing.T) {
	c := testChip(t, nil)
	g := c.Geometry()
	last := g.Blocks() - 1
	p := g.PPNOf(last, 0)
	if c.State(p) != PageErased || c.FullyProgrammed(p) {
		t.Fatalf("untouched page state %v", c.State(p))
	}
	if res, err := c.Read(p); err != nil || res.FP != content.Zero || res.Status != ReadClean {
		t.Fatalf("untouched read = %+v, %v", res, err)
	}
	if c.NextPage(last) != 0 || c.EraseCount(last) != 0 || c.ReadCount(last) != 0 {
		t.Fatalf("untouched block: next=%d erases=%d reads=%d",
			c.NextPage(last), c.EraseCount(last), c.ReadCount(last))
	}
	if len(c.blocks) != 0 {
		t.Fatalf("reads opened %d blocks", len(c.blocks))
	}
	for _, b := range []int{-1, g.Blocks()} {
		if err := c.Erase(b); err != ErrBadAddress {
			t.Fatalf("Erase(%d) = %v, want ErrBadAddress", b, err)
		}
		if err := c.ErasePartial(b, 0.5); err != ErrBadAddress {
			t.Fatalf("ErasePartial(%d) = %v, want ErrBadAddress", b, err)
		}
	}
	if err := c.Program(p, 7); err != nil {
		t.Fatalf("program on the last block: %v", err)
	}
	if len(c.blocks) != g.Blocks() || c.NextPage(last) != 1 || c.State(p) != PageProgrammed {
		t.Fatalf("after program: %d blocks, next=%d, state %v", len(c.blocks), c.NextPage(last), c.State(p))
	}
	if res, err := c.Read(p); err != nil || res.FP != 7 {
		t.Fatalf("read back = %+v, %v", res, err)
	}
	if c.NextPage(0) != 0 || c.EraseCount(0) != 0 {
		t.Fatal("growing to the last block touched the first")
	}
	if err := c.Erase(1); err != nil || c.EraseCount(1) != 1 {
		t.Fatalf("erase of an untouched block: %v, erases=%d", err, c.EraseCount(1))
	}
}

// TestProgramPartialEarlyCorrupts: a program interrupted early leaves the
// page unreadable even through ECC.
func TestProgramPartialEarlyCorrupts(t *testing.T) {
	c := testChip(t, nil)
	if err := c.ProgramPartial(0, 0x1234, 0.05); err != nil {
		t.Fatal(err)
	}
	if c.State(0) != PageCorrupt {
		t.Fatalf("state = %v", c.State(0))
	}
	uncorrectable := 0
	for i := 0; i < 50; i++ {
		res, _ := c.Read(0)
		if res.Status == ReadUncorrectable {
			uncorrectable++
			if res.FP == 0x1234 {
				t.Fatal("uncorrectable read returned intact content")
			}
		}
	}
	if uncorrectable < 45 {
		t.Fatalf("early-interrupted page was readable %d/50 times", 50-uncorrectable)
	}
}

// TestProgramPartialLateOftenSurvives: interruption in the final ISPP step
// leaves distributions close enough for ECC.
func TestProgramPartialLateOftenSurvives(t *testing.T) {
	c := testChip(t, nil)
	if err := c.ProgramPartial(0, 0x9999, 0.99); err != nil {
		t.Fatal(err)
	}
	clean := 0
	for i := 0; i < 50; i++ {
		res, _ := c.Read(0)
		if res.Status != ReadUncorrectable {
			clean++
		}
	}
	if clean < 40 {
		t.Fatalf("late-interrupted page survived only %d/50 reads", clean)
	}
}

// TestPairedPageCorruption: interrupting an upper-page program can corrupt
// the paired lower page written earlier (MLC stride 4).
func TestPairedPageCorruption(t *testing.T) {
	corrupted := 0
	const trials = 200
	for seed := 0; seed < trials; seed++ {
		cfg := Config{
			Geometry: Geometry{Dies: 1, PlanesPerDie: 1, BlocksPerPlane: 2, PagesPerBlock: 16},
			Cell:     MLC, Timing: TimingFor(MLC),
			ECC:     ECCConfig{Scheme: "BCH", CorrectPerKB: 40},
			BaseBER: 0, WearBERMult: 4, EnduranceCycles: 3000,
		}
		c, err := New(cfg, sim.NewRNG(uint64(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := c.Program(addr.PPN(i), content.Fingerprint(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		// Interrupt page 4 mid-way; its paired lower page is page 0.
		if err := c.ProgramPartial(4, 0xffff, 0.5); err != nil {
			t.Fatal(err)
		}
		if c.State(0) == PageCorrupt {
			corrupted++
		}
		if c.State(1) == PageCorrupt || c.State(2) == PageCorrupt {
			t.Fatal("non-paired page corrupted")
		}
	}
	// Peak probability is PairCorruptProb(MLC) = 0.45 at frac=0.5.
	if corrupted < trials/4 || corrupted > trials*3/4 {
		t.Fatalf("paired corruption rate %d/%d, want around 45%%", corrupted, trials)
	}
}

func TestTLCPairedPages(t *testing.T) {
	if got := TLC.PairedLowerPages(7); len(got) != 2 || got[0] != 4 || got[1] != 1 {
		t.Fatalf("TLC pairs of page 7 = %v", got)
	}
	if got := MLC.PairedLowerPages(2); got != nil {
		t.Fatalf("MLC page 2 should have no pair, got %v", got)
	}
	if got := SLC.PairedLowerPages(10); got != nil {
		t.Fatal("SLC has no paired pages")
	}
}

func TestErasePartial(t *testing.T) {
	c := testChip(t, nil)
	for i := 0; i < 8; i++ {
		if err := c.Program(addr.PPN(i), content.Fingerprint(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ErasePartial(0, 0.3); err != nil {
		t.Fatal(err)
	}
	if c.State(0) != PageUnreliable {
		t.Fatalf("state after partial erase = %v", c.State(0))
	}
	// The block must demand a full erase before reuse.
	if err := c.Program(8, 1); err != ErrNeedsErase {
		t.Fatalf("program on half-erased block: %v", err)
	}
	if err := c.Erase(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Program(0, 1); err != nil {
		t.Fatalf("program after recovery erase: %v", err)
	}
}

func TestECCCorrectsModerateBER(t *testing.T) {
	c := testChip(t, func(cfg *Config) {
		cfg.BaseBER = 1e-5 // lambda ~ 0.33 bits/page, far below 160 correctable
	})
	if err := c.Program(0, 0x77); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		res, _ := c.Read(0)
		if res.FP != 0x77 {
			t.Fatalf("ECC failed at trivial BER: %+v", res)
		}
	}
}

func TestECCOverwhelmedByHighBER(t *testing.T) {
	c := testChip(t, func(cfg *Config) {
		cfg.BaseBER = 0.05 // lambda ~ 1638 >> 160 correctable
	})
	if err := c.Program(0, 0x77); err != nil {
		t.Fatal(err)
	}
	res, _ := c.Read(0)
	if res.Status != ReadUncorrectable {
		t.Fatalf("expected uncorrectable read, got %+v", res)
	}
	if res.FP == 0x77 || res.FP == content.Zero {
		t.Fatal("uncorrectable read must return distinct corrupted content")
	}
}

func TestWearRaisesBER(t *testing.T) {
	c := testChip(t, func(cfg *Config) {
		cfg.BaseBER = 2e-3 // lambda ~ 65 fresh; 4x wear multiplier pushes past 160
		cfg.WearBERMult = 10
		cfg.EnduranceCycles = 10
	})
	// Wear block 0 out.
	for i := 0; i < 30; i++ {
		if err := c.Erase(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Program(0, 0x5); err != nil {
		t.Fatal(err)
	}
	unc := 0
	for i := 0; i < 100; i++ {
		res, _ := c.Read(0)
		if res.Status == ReadUncorrectable {
			unc++
		}
	}
	if unc < 90 {
		t.Fatalf("worn block uncorrectable only %d/100", unc)
	}
}

// TestReadDisturbAccumulates: heavy re-reading of a block raises its raw
// error rate until ECC gives up; an erase resets the disturb counter.
func TestReadDisturbAccumulates(t *testing.T) {
	c := testChip(t, func(cfg *Config) {
		cfg.BaseBER = 1e-7
		cfg.ReadDisturbBER = 2.0 // absurdly strong so few reads suffice
	})
	if err := c.Program(0, 0x42); err != nil {
		t.Fatal(err)
	}
	unc := false
	for i := 0; i < 5000 && !unc; i++ {
		res, _ := c.Read(0)
		unc = res.Status == ReadUncorrectable
	}
	if !unc {
		t.Fatal("read disturb never overwhelmed ECC")
	}
	if c.ReadCount(0) == 0 {
		t.Fatal("read counter not tracked")
	}
	if err := c.Erase(0); err != nil {
		t.Fatal(err)
	}
	if c.ReadCount(0) != 0 {
		t.Fatal("erase did not reset the disturb counter")
	}
	if err := c.Program(0, 0x42); err != nil {
		t.Fatal(err)
	}
	if res, _ := c.Read(0); res.Status == ReadUncorrectable {
		t.Fatal("fresh block already uncorrectable")
	}
}

func TestStatsCounting(t *testing.T) {
	c := testChip(t, nil)
	c.Program(0, 1)
	c.Read(0)
	c.ProgramPartial(1, 2, 0.5)
	c.Erase(1)
	s := c.Stats()
	if s.Programs != 1 || s.Reads != 1 || s.PartialPrograms != 1 || s.Erases != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCellKindHelpers(t *testing.T) {
	if MLC.BitsPerCell() != 2 || TLC.BitsPerCell() != 3 || SLC.BitsPerCell() != 1 {
		t.Fatal("bits per cell wrong")
	}
	if !MLC.Valid() || CellKind(0).Valid() || CellKind(9).Valid() {
		t.Fatal("Valid wrong")
	}
	if TLC.ProgramSteps() <= MLC.ProgramSteps() {
		t.Fatal("TLC should need more ISPP steps than MLC")
	}
	if TLC.PairCorruptProb() <= MLC.PairCorruptProb() {
		t.Fatal("TLC should be more pair-fragile than MLC")
	}
	for _, k := range []CellKind{SLC, MLC, TLC} {
		if k.String() == "" || TimingFor(k).Validate() != nil {
			t.Fatal("timing/string wrong")
		}
		if DefaultBER(k) <= 0 || DefaultEndurance(k) <= 0 {
			t.Fatal("defaults wrong")
		}
	}
	if DefaultBER(TLC) <= DefaultBER(MLC) {
		t.Fatal("TLC BER should exceed MLC")
	}
	if DefaultEndurance(TLC) >= DefaultEndurance(MLC) {
		t.Fatal("TLC endurance should be below MLC")
	}
}

func TestConfigValidation(t *testing.T) {
	good := testChip(t, nil).Config()
	bad := good
	bad.BaseBER = 0.9
	if bad.Validate() == nil {
		t.Fatal("absurd BER accepted")
	}
	bad = good
	bad.EnduranceCycles = 0
	if bad.Validate() == nil {
		t.Fatal("zero endurance accepted")
	}
	bad = good
	bad.Cell = CellKind(99)
	if bad.Validate() == nil {
		t.Fatal("bad cell kind accepted")
	}
	if _, err := New(good, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
}

func TestECCConfigPerPage(t *testing.T) {
	e := ECCConfig{Scheme: "BCH", CorrectPerKB: 40}
	if e.CorrectPerPage() != 160 {
		t.Fatalf("CorrectPerPage = %d, want 160", e.CorrectPerPage())
	}
	if (ECCConfig{CorrectPerKB: -1}).Validate() == nil {
		t.Fatal("negative ECC accepted")
	}
}

func TestFullyProgrammedAndOOB(t *testing.T) {
	c := testChip(t, nil)
	c.Program(0, 1)
	c.ProgramPartial(1, 2, 0.2)
	if !c.FullyProgrammed(0) {
		t.Fatal("clean page not fully programmed")
	}
	if c.FullyProgrammed(1) {
		t.Fatal("partial page reported fully programmed")
	}
	if c.FullyProgrammed(2) {
		t.Fatal("erased page reported fully programmed")
	}
}

func TestStateStrings(t *testing.T) {
	for _, s := range []PageState{PageErased, PageProgrammed, PageCorrupt, PageUnreliable} {
		if s.String() == "" {
			t.Fatal("empty state string")
		}
	}
	for _, s := range []ReadStatus{ReadClean, ReadCorrected, ReadUncorrectable} {
		if s.String() == "" {
			t.Fatal("empty status string")
		}
	}
}
