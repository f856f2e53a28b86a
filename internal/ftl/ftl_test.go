package ftl

import (
	"testing"
	"testing/quick"
	"unsafe"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/flash"
	"powerfail/internal/sim"
)

// testFTL builds a small chip+FTL pair: 64 blocks of 16 pages, 32 lanes of
// user capacity left after reserves.
func testFTL(t *testing.T, mutate func(*Config)) (*flash.Chip, *FTL) {
	t.Helper()
	chip, err := flash.New(flash.Config{
		Geometry:        flash.Geometry{Dies: 2, PlanesPerDie: 2, BlocksPerPlane: 16, PagesPerBlock: 16},
		Cell:            flash.MLC,
		Timing:          flash.TimingFor(flash.MLC),
		ECC:             flash.ECCConfig{Scheme: "BCH", CorrectPerKB: 40},
		BaseBER:         0,
		WearBERMult:     4,
		EnduranceCycles: 3000,
	}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(300, 2)
	cfg.ScanWindowPages = 0 // most tests want deterministic loss
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(chip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return chip, f
}

// write performs a full BeginWrite/Program/CompleteWrite cycle.
func write(t *testing.T, chip *flash.Chip, f *FTL, lpn addr.LPN, fp content.Fingerprint, now sim.Time) addr.PPN {
	t.Helper()
	tk, err := f.BeginWrite(lpn)
	if err != nil {
		t.Fatalf("BeginWrite(%v): %v", lpn, err)
	}
	if err := chip.Program(tk.PPN, fp); err != nil {
		t.Fatalf("Program(%v): %v", tk.PPN, err)
	}
	f.CompleteWrite(tk, now)
	return tk.PPN
}

func readBack(t *testing.T, chip *flash.Chip, f *FTL, lpn addr.LPN) content.Fingerprint {
	t.Helper()
	ppn, ok := f.Lookup(lpn)
	if !ok {
		return content.Zero
	}
	res, err := chip.Read(ppn)
	if err != nil {
		t.Fatal(err)
	}
	return res.FP
}

func TestWriteLookupRoundTrip(t *testing.T) {
	chip, f := testFTL(t, nil)
	for i := 0; i < 50; i++ {
		write(t, chip, f, addr.LPN(i), content.Fingerprint(i+100), 0)
	}
	for i := 0; i < 50; i++ {
		if got := readBack(t, chip, f, addr.LPN(i)); got != content.Fingerprint(i+100) {
			t.Fatalf("lpn %d read %x", i, got)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOverwriteInvalidatesOld(t *testing.T) {
	chip, f := testFTL(t, nil)
	p1 := write(t, chip, f, 5, 0xaa, 0)
	p2 := write(t, chip, f, 5, 0xbb, 0)
	if p1 == p2 {
		t.Fatal("overwrite reused the same physical page")
	}
	if got := readBack(t, chip, f, 5); got != 0xbb {
		t.Fatalf("read %x after overwrite", got)
	}
	if f.ValidPages(chip.Geometry().BlockOf(p1)) != 0 {
		t.Fatal("old page still counted valid")
	}
}

func TestBadLPN(t *testing.T) {
	_, f := testFTL(t, nil)
	if _, err := f.BeginWrite(-1); err != ErrBadLPN {
		t.Fatal("negative lpn accepted")
	}
	if _, err := f.BeginWrite(addr.LPN(f.UserPages())); err != ErrBadLPN {
		t.Fatal("out-of-range lpn accepted")
	}
}

func TestJournalCommitClearsPending(t *testing.T) {
	chip, f := testFTL(t, nil)
	now := sim.Time(0)
	for i := 0; i < 10; i++ {
		write(t, chip, f, addr.LPN(i*3), content.Fingerprint(i+1), now)
	}
	f.ForceCloseRun()
	if f.PendingRecords() == 0 {
		t.Fatal("no pending records after writes")
	}
	f.CommitJournal()
	if f.PendingRecords() != 0 {
		t.Fatal("pending not cleared")
	}
	// Crash after commit loses nothing.
	cs := f.Crash(now)
	if cs.Lost != 0 {
		t.Fatalf("lost %d mappings after full commit", cs.Lost)
	}
}

func TestCrashRevertsUncommitted(t *testing.T) {
	chip, f := testFTL(t, nil)
	now := sim.Time(0)
	write(t, chip, f, 7, 0x01, now)
	f.ForceCloseRun()
	f.CommitJournal()

	// Overwrite without committing: crash must revert to the old data.
	write(t, chip, f, 7, 0x02, now)
	cs := f.Crash(now)
	if cs.Lost != 1 {
		t.Fatalf("lost = %d, want 1", cs.Lost)
	}
	if got := readBack(t, chip, f, 7); got != 0x01 {
		t.Fatalf("after crash read %x, want old 0x01 (the FWA mechanism)", got)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashFirstWriteRevertsToUnmapped(t *testing.T) {
	chip, f := testFTL(t, nil)
	write(t, chip, f, 9, 0x5, 0)
	f.Crash(0)
	if _, ok := f.Lookup(9); ok {
		t.Fatal("first-write mapping survived an uncommitted crash")
	}
	_ = chip
}

func TestCrashWAWChainReverts(t *testing.T) {
	chip, f := testFTL(t, nil)
	now := sim.Time(0)
	write(t, chip, f, 3, 0x10, now)
	f.ForceCloseRun()
	f.CommitJournal()
	write(t, chip, f, 3, 0x20, now) // uncommitted
	write(t, chip, f, 3, 0x30, now) // uncommitted
	cs := f.Crash(now)
	if cs.Lost != 1 {
		t.Fatalf("lost = %d (one logical page)", cs.Lost)
	}
	if got := readBack(t, chip, f, 3); got != 0x10 {
		t.Fatalf("chain revert read %x, want 0x10", got)
	}
}

func TestOOBScanRecoversRecent(t *testing.T) {
	chip, f := testFTL(t, func(c *Config) { c.ScanWindowPages = 16 })
	now := sim.Time(0)
	for i := 0; i < 8; i++ {
		write(t, chip, f, addr.LPN(i), content.Fingerprint(0x100+i), now)
	}
	cs := f.Crash(now)
	if cs.Recovered != 8 || cs.Lost != 0 {
		t.Fatalf("crash = %+v, want all 8 recovered by OOB scan", cs)
	}
	for i := 0; i < 8; i++ {
		if got := readBack(t, chip, f, addr.LPN(i)); got != content.Fingerprint(0x100+i) {
			t.Fatalf("recovered lpn %d reads %x", i, got)
		}
	}
}

func TestRunFormationAndClose(t *testing.T) {
	chip, f := testFTL(t, func(c *Config) {
		c.RunMaxPages = 8
		c.RunStaleAfter = 100 * sim.Millisecond
	})
	now := sim.Time(0)
	for i := 0; i < 6; i++ {
		write(t, chip, f, addr.LPN(i), content.Fingerprint(i+1), now)
	}
	if f.OpenRunLen() != 6 {
		t.Fatalf("open run = %d, want 6", f.OpenRunLen())
	}
	// A distant write closes the run.
	write(t, chip, f, 280, 0xff, now)
	if f.PendingRecords() < 6 {
		t.Fatalf("pending = %d after run close", f.PendingRecords())
	}
	// Staleness closes the open run too.
	f.MaybeCloseRun(now.Add(200 * sim.Millisecond))
	if f.OpenRunLen() != 0 {
		t.Fatal("stale run not closed")
	}
}

func TestRunMaxCloses(t *testing.T) {
	chip, f := testFTL(t, func(c *Config) { c.RunMaxPages = 4 })
	for i := 0; i < 9; i++ {
		write(t, chip, f, addr.LPN(i), 1, 0)
	}
	if f.OpenRunLen() > 4 {
		t.Fatalf("open run %d exceeds max 4", f.OpenRunLen())
	}
	if f.Stats().RunsClosed == 0 {
		t.Fatal("no runs closed at RunMax")
	}
}

func TestRunGapTolerance(t *testing.T) {
	chip, f := testFTL(t, nil)
	// Channel-permuted sequential arrivals: 0,2,1,4,3,... stay one run.
	order := []addr.LPN{0, 2, 1, 4, 3, 6, 5, 7}
	for _, lpn := range order {
		write(t, chip, f, lpn, 1, 0)
	}
	if f.OpenRunLen() != len(order) {
		t.Fatalf("permuted sequential stream split: run=%d", f.OpenRunLen())
	}
	if f.Stats().RunsClosed != 0 {
		t.Fatal("tolerant run closed unexpectedly")
	}
}

func TestGCReclaimsAndPreservesData(t *testing.T) {
	chip, f := testFTL(t, func(c *Config) {
		c.UserPages = 128
		c.GCLowBlocks = 48
		c.GCHighBlocks = 50
	})
	now := sim.Time(0)
	// Fill blocks, overwriting so most pages invalidate.
	const rounds = 10
	for round := 0; round < rounds; round++ {
		for i := 0; i < 24; i++ {
			write(t, chip, f, addr.LPN(i), content.Fingerprint(0x1000*round+i), now)
		}
	}
	f.ForceCloseRun()
	f.CommitJournal()
	if !f.NeedGC() {
		t.Fatalf("free=%d, expected GC pressure", f.FreeBlocks())
	}
	freeBefore := f.FreeBlocks()
	for !f.GCSatisfied() {
		plan := f.GCPlan()
		if plan == nil {
			break
		}
		for _, mv := range plan.Moves {
			res, err := chip.Read(mv.From)
			if err != nil {
				t.Fatal(err)
			}
			tk, err := f.BeginMove(mv.LPN)
			if err != nil {
				t.Fatal(err)
			}
			if err := chip.Program(tk.PPN, res.FP); err != nil {
				t.Fatal(err)
			}
			if !f.CompleteMove(tk, mv.From, now) {
				t.Fatal("move aborted unexpectedly")
			}
		}
		f.CommitJournal()
		if err := f.GCFinish(plan.Victim); err != nil {
			t.Fatal(err)
		}
	}
	if f.FreeBlocks() <= freeBefore {
		t.Fatal("GC reclaimed nothing")
	}
	for i := 0; i < 24; i++ {
		if got := readBack(t, chip, f, addr.LPN(i)); got != content.Fingerprint(0x1000*(rounds-1)+i) {
			t.Fatalf("post-GC lpn %d reads %x", i, got)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGCSkipsPinnedBlocks(t *testing.T) {
	chip, f := testFTL(t, nil)
	now := sim.Time(0)
	p1 := write(t, chip, f, 1, 0xaa, now)
	f.ForceCloseRun()
	f.CommitJournal()
	// Overwrite leaves the old block pinned until the journal commits.
	write(t, chip, f, 1, 0xbb, now)
	pinnedBlock := chip.Geometry().BlockOf(p1)
	if plan := f.GCPlan(); plan != nil && plan.Victim == pinnedBlock {
		t.Fatal("GC picked a journal-pinned block")
	}
}

// TestGCSkipsBlockInFlight rolls a lane past a block whose programs are
// still queued: every page of it is reserved, and they complete one by
// one. GCPlan must not pick the block while a ticket is outstanding, or
// the programs that land after the plan are erased with it.
func TestGCSkipsBlockInFlight(t *testing.T) {
	chip, f := testFTL(t, func(c *Config) { c.Lanes = 1 })
	tks := make([]Ticket, f.geo.PagesPerBlock)
	for i := range tks {
		tk, err := f.BeginWrite(addr.LPN(i))
		if err != nil {
			t.Fatal(err)
		}
		tks[i] = tk
	}
	write(t, chip, f, 100, 0x1, 0) // the lane rolls over to a new block
	queued := chip.Geometry().BlockOf(tks[0].PPN)
	for i, tk := range tks {
		if err := chip.Program(tk.PPN, content.Fingerprint(0x10+i)); err != nil {
			t.Fatal(err)
		}
		f.CompleteWrite(tk, 0)
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if plan := f.GCPlan(); plan != nil && plan.Victim == queued && i < len(tks)-1 {
			t.Fatalf("GCPlan picked block %d with %d programs still queued", queued, len(tks)-1-i)
		}
	}
}

// TestGCReclaimsAbortedBlock cuts the power while every page of a block
// the lane has rolled past is reserved and none is programmed. The block
// holds nothing after the crash, and GC must take it back.
func TestGCReclaimsAbortedBlock(t *testing.T) {
	chip, f := testFTL(t, func(c *Config) { c.Lanes = 1 })
	tks := make([]Ticket, f.geo.PagesPerBlock)
	for i := range tks {
		tks[i], _ = f.BeginWrite(addr.LPN(i))
	}
	tk, _ := f.BeginWrite(100) // the lane rolls over to a new block
	for _, tk := range append(tks, tk) {
		f.AbortWrite(tk)
	}
	f.Crash(0)
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	aborted, free := chip.Geometry().BlockOf(tks[0].PPN), f.FreeBlocks()
	plan := f.GCPlan()
	if plan == nil || plan.Victim != aborted || len(plan.Moves) != 0 {
		t.Fatalf("GCPlan = %+v, want block %d with no moves", plan, aborted)
	}
	if err := f.GCFinish(plan.Victim); err != nil || f.FreeBlocks() != free+1 {
		t.Fatalf("GCFinish: %v, free %d -> %d", err, free, f.FreeBlocks())
	}
}

func TestCompleteMoveStaleAborts(t *testing.T) {
	chip, f := testFTL(t, nil)
	now := sim.Time(0)
	from := write(t, chip, f, 2, 0x1, now)
	// Host overwrites while the migration is "in flight".
	write(t, chip, f, 2, 0x2, now)
	tk, err := f.BeginMove(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := chip.Program(tk.PPN, 0x1); err != nil {
		t.Fatal(err)
	}
	if f.CompleteMove(tk, from, now) {
		t.Fatal("stale move applied")
	}
	if got := readBack(t, chip, f, 2); got != 0x2 {
		t.Fatalf("host data lost to stale move: %x", got)
	}
}

func TestCrashResyncsAllocation(t *testing.T) {
	chip, f := testFTL(t, nil)
	// Reserve pages that never get programmed (power died first).
	tk1, _ := f.BeginWrite(1)
	tk2, _ := f.BeginWrite(2)
	f.AbortWrite(tk1)
	f.AbortWrite(tk2)
	f.Crash(0)
	// New writes must land on chip-programmable pages.
	for i := 0; i < 10; i++ {
		write(t, chip, f, addr.LPN(10+i), content.Fingerprint(i), 0)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityRejected(t *testing.T) {
	chip, _ := testFTL(t, nil)
	_, err := New(chip, DefaultConfig(1<<40, 2))
	if err == nil {
		t.Fatal("oversized FTL accepted")
	}
}

// bigChip builds a chip of blocksPerPlane 512-page blocks on one plane;
// a chip allocates nothing per block until one opens.
func bigChip(t *testing.T, blocksPerPlane int) *flash.Chip {
	t.Helper()
	chip, err := flash.New(flash.Config{
		Geometry:        flash.Geometry{Dies: 1, PlanesPerDie: 1, BlocksPerPlane: blocksPerPlane, PagesPerBlock: 512},
		Cell:            flash.MLC,
		Timing:          flash.TimingFor(flash.MLC),
		ECC:             flash.ECCConfig{Scheme: "BCH", CorrectPerKB: 40},
		WearBERMult:     4,
		EnduranceCycles: 3000,
	}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

// TestNewRejectsInt32Overflow pins the page bound of the int32 maps: a
// geometry of 2^31 pages or more is an error, and the largest geometry
// below it maps and looks up its last logical page.
func TestNewRejectsInt32Overflow(t *testing.T) {
	for _, blocks := range []int{1 << 22, 1<<22 + 1, 1 << 30} {
		if _, err := New(bigChip(t, blocks), DefaultConfig(4096, 2)); err == nil {
			t.Fatalf("FTL over %d pages accepted", int64(blocks)*512)
		}
	}
	chip := bigChip(t, 1<<22-1)
	pages := chip.Geometry().Pages() - 64*512
	f, err := New(chip, DefaultConfig(pages, 2))
	if err != nil {
		t.Fatal(err)
	}
	last := addr.LPN(pages - 1)
	ppn := write(t, chip, f, last, content.Fingerprint(7), 0)
	if got, ok := f.Lookup(last); !ok || got != ppn {
		t.Fatalf("Lookup(%v) = %v, %v, want %v", last, got, ok, ppn)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMapEntriesAreFourBytes pins the size of the FTL's per-page maps:
// one forward-map entry and one reverse-map entry take 4 bytes each.
func TestMapEntriesAreFourBytes(t *testing.T) {
	var f FTL
	if n := unsafe.Sizeof(f.l2p.Get(0)); n != 4 {
		t.Errorf("an l2p entry takes %d bytes, want 4", n)
	}
	if n := unsafe.Sizeof(blockState{}.rev[0]); n != 4 {
		t.Errorf("a reverse-map entry takes %d bytes, want 4", n)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{UserPages: 0, Lanes: 1, GCLowBlocks: 1, GCHighBlocks: 2, JournalBatchPages: 1, RunMaxPages: 1},
		{UserPages: 10, Lanes: 0, GCLowBlocks: 1, GCHighBlocks: 2, JournalBatchPages: 1, RunMaxPages: 1},
		{UserPages: 10, Lanes: 1, GCLowBlocks: 2, GCHighBlocks: 1, JournalBatchPages: 1, RunMaxPages: 1},
		{UserPages: 10, Lanes: 1, GCLowBlocks: 1, GCHighBlocks: 2, JournalBatchPages: 0, RunMaxPages: 1},
		{UserPages: 10, Lanes: 1, GCLowBlocks: 1, GCHighBlocks: 2, JournalBatchPages: 1, RunMaxPages: 1, ScanWindowPages: -1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// Property: after any sequence of writes/overwrites plus an optional
// crash, the invariants hold and committed data reads back.
func TestQuickRandomOpsInvariants(t *testing.T) {
	f := func(ops []uint16, crashAt uint8) bool {
		chip, ftl := testFTL(t, nil)
		now := sim.Time(0)
		for i, op := range ops {
			lpn := addr.LPN(op % 200)
			tk, err := ftl.BeginWrite(lpn)
			if err != nil {
				return false
			}
			if err := chip.Program(tk.PPN, content.Fingerprint(op)+1); err != nil {
				return false
			}
			ftl.CompleteWrite(tk, now)
			if i == int(crashAt)%len(ops) {
				ftl.Crash(now)
			}
		}
		return ftl.CheckInvariants() == nil
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverDuration(t *testing.T) {
	_, f := testFTL(t, func(c *Config) { c.ScanWindowPages = 16 })
	if f.RecoverDuration() <= 10*sim.Millisecond {
		t.Fatal("recover duration should include scan reads")
	}
}

// TestBlockAllocationOrder churns a small drive through many collections
// and checks every block the FTL opens against a reference free pool
// kept as a plain list: the opened block is always the free block with
// the fewest erases, lowest index first, whether it was never used or
// recycled by GC.
func TestBlockAllocationOrder(t *testing.T) {
	chip, f := testFTL(t, func(c *Config) {
		c.UserPages = 128
		c.GCLowBlocks = 6
		c.GCHighBlocks = 9
	})
	type ref struct{ idx, erases int }
	var free []ref
	for b := 0; b < chip.Geometry().Blocks(); b++ {
		free = append(free, ref{idx: b})
	}
	opened := 0
	begin := func(reserve func(addr.LPN) (Ticket, error), lpn addr.LPN) Ticket {
		tk, err := reserve(lpn)
		if err != nil {
			t.Fatal(err)
		}
		if chip.Geometry().PageOf(tk.PPN) != 0 {
			return tk
		}
		best := 0
		for i, r := range free {
			if r.erases < free[best].erases || r.erases == free[best].erases && r.idx < free[best].idx {
				best = i
			}
		}
		if got := chip.Geometry().BlockOf(tk.PPN); got != free[best].idx {
			t.Fatalf("opened block %d, want %+v", got, free[best])
		}
		free = append(free[:best], free[best+1:]...)
		opened++
		return tk
	}
	rng := sim.NewRNG(5)
	now := sim.Time(0)
	for step := 0; step < 6000; step++ {
		tk := begin(f.BeginWrite, addr.LPN(rng.Intn(128)))
		if err := chip.Program(tk.PPN, content.Fingerprint(step+1)); err != nil {
			t.Fatal(err)
		}
		f.CompleteWrite(tk, now)
		if step%24 == 23 {
			f.ForceCloseRun()
			f.CommitJournal()
		}
		for f.NeedGC() && !f.GCSatisfied() {
			plan := f.GCPlan()
			if plan == nil {
				break
			}
			for _, mv := range plan.Moves {
				res, err := chip.Read(mv.From)
				if err != nil {
					t.Fatal(err)
				}
				mt := begin(f.BeginMove, mv.LPN)
				if err := chip.Program(mt.PPN, res.FP); err != nil {
					t.Fatal(err)
				}
				f.CompleteMove(mt, mv.From, now)
			}
			f.CommitJournal()
			if err := f.GCFinish(plan.Victim); err != nil {
				t.Fatal(err)
			}
			free = append(free, ref{idx: plan.Victim, erases: chip.EraseCount(plan.Victim)})
		}
		if f.FreeBlocks() != len(free) {
			t.Fatalf("step %d: FreeBlocks = %d, reference %d", step, f.FreeBlocks(), len(free))
		}
	}
	if f.Stats().GCCollections < 100 || opened < 2*chip.Geometry().Blocks() {
		t.Fatalf("churn too light: %d collections, %d blocks opened", f.Stats().GCCollections, opened)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCanReserveMatchesBeginWrite checks CanReserve against the call it
// predicts. From states with different lane offsets and partly filled
// active blocks, it writes until BeginWrite refuses; before every call,
// CanReserve must say whether that call succeeds.
func TestCanReserveMatchesBeginWrite(t *testing.T) {
	for _, lanes := range []int{1, 2, 3} {
		for k := 0; k < 1024; k += 13 {
			_, f := testFTL(t, func(c *Config) { c.Lanes = lanes })
			for i := 0; i < k; i++ {
				if _, err := f.BeginWrite(addr.LPN(i % 300)); err != nil {
					break
				}
			}
			limit := f.hostFree()*f.geo.PagesPerBlock + lanes*f.geo.PagesPerBlock
			for m := 0; ; m++ {
				can := f.CanReserve()
				_, err := f.BeginWrite(addr.LPN(m % 300))
				if can != (err == nil) {
					t.Fatalf("lanes=%d k=%d: CanReserve()=%v before call %d, which returned %v", lanes, k, can, m, err)
				}
				if err != nil {
					break
				}
				if m > limit {
					t.Fatalf("lanes=%d k=%d: %d calls succeeded, over the %d-page bound", lanes, k, m, limit)
				}
			}
		}
	}
}
