package ftl

import (
	"errors"
	"slices"
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/flash"
	"powerfail/internal/sim"
)

// ftlScript drives an FTL and its chip through the controller's calls as a
// byte script dictates, on a drive small enough that a few dozen writes
// exhaust the never-used blocks and GC recycles them. Every call keeps the
// controller's contract: pages of a lane are programmed in reservation
// order, and a reservation that is never programmed is aborted and
// followed by a crash, which is the only way a real controller drops one.
type ftlScript struct {
	t    *testing.T
	ops  []byte
	chip *flash.Chip
	f    *FTL
	now  sim.Time
	fp   content.Fingerprint

	// inFlight holds the host tickets reserved and not yet completed
	// while a collection runs; no victim may hold one.
	inFlight []Ticket
	// rolled counts collections planned after a lane rolled past a block
	// with tickets in flight; reserveMoves counts moves that opened a
	// block host writes could not. The seed tests read them.
	rolled, reserveMoves int
}

func newFTLScript(t *testing.T, ops []byte) *ftlScript {
	chip, err := flash.New(flash.Config{
		Geometry:        flash.Geometry{Dies: 1, PlanesPerDie: 2, BlocksPerPlane: 6, PagesPerBlock: 4},
		Cell:            flash.MLC,
		Timing:          flash.TimingFor(flash.MLC),
		ECC:             flash.ECCConfig{Scheme: "BCH", CorrectPerKB: 40},
		WearBERMult:     4,
		EnduranceCycles: 3000,
	}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(chip, Config{
		UserPages:         16,
		Lanes:             2,
		GCLowBlocks:       2,
		GCHighBlocks:      3,
		JournalBatchPages: 6,
		RunMaxPages:       5,
		RunStaleAfter:     4 * sim.Millisecond,
		ScanWindowPages:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &ftlScript{t: t, ops: ops, chip: chip, f: f}
}

// next consumes one script byte, 0 once the script is exhausted.
func (s *ftlScript) next() byte {
	if len(s.ops) == 0 {
		return 0
	}
	b := s.ops[0]
	s.ops = s.ops[1:]
	return b
}

// check asserts the FTL's invariants after the operation named by what.
func (s *ftlScript) check(what string) {
	s.t.Helper()
	if err := s.f.CheckInvariants(); err != nil {
		s.t.Fatalf("after %s: %v", what, err)
	}
}

func (s *ftlScript) must(err error, what string) {
	s.t.Helper()
	if err != nil {
		s.t.Fatalf("%s: %v", what, err)
	}
}

// program programs a reserved page with fresh content.
func (s *ftlScript) program(tk Ticket) {
	s.fp++
	s.must(s.chip.Program(tk.PPN, s.fp), "Program")
}

// cut models a power cut with tk's program in flight and rest reserved
// but not started: tk is partly programmed or not at all, both are
// aborted, and the FTL crashes.
func (s *ftlScript) cut(tk Ticket, rest []Ticket) {
	if b := s.next(); b&1 != 0 {
		s.fp++
		s.must(s.chip.ProgramPartial(tk.PPN, s.fp, float64(b>>1)/128), "ProgramPartial")
	}
	s.f.AbortWrite(tk)
	for _, r := range rest {
		s.f.AbortWrite(r)
	}
	s.f.Crash(s.now)
	s.check("Crash after a cut write")
}

// makeRoom runs GC as the controller does when free space is low,
// committing the journal whenever a collection frees nothing.
func (s *ftlScript) makeRoom() {
	for i := 0; i < 4 && s.f.NeedGC() && !s.f.GCSatisfied(); i++ {
		if !s.collect(false) {
			s.f.CommitJournal()
			s.check("CommitJournal")
		}
	}
}

// beginWrite reserves a page for lpn, folded into the user pages, and
// reports whether BeginWrite placed it, as CanReserve predicted. A
// refusal must change nothing: the free pool, the lane the next write
// takes and the invariants stay as they were.
func (s *ftlScript) beginWrite(lpn addr.LPN) (Ticket, bool) {
	s.t.Helper()
	can, free, mapped := s.f.CanReserve(), s.f.FreeBlocks(), s.f.Stats().WritesMapped
	tk, err := s.f.BeginWrite(lpn % addr.LPN(s.f.UserPages()))
	if can != (err == nil) {
		s.t.Fatalf("CanReserve() = %v, but BeginWrite returned %v", can, err)
	}
	if err == nil {
		return tk, true
	}
	if !errors.Is(err, ErrNoSpace) || s.f.FreeBlocks() != free || s.f.Stats().WritesMapped != mapped {
		s.t.Fatalf("refused BeginWrite: %v, free blocks %d -> %d, writes mapped %d -> %d",
			err, free, s.f.FreeBlocks(), mapped, s.f.Stats().WritesMapped)
	}
	s.check("a refused BeginWrite")
	return Ticket{}, false
}

// write maps a batch of host pages: reserve them one at a time until
// BeginWrite refuses, then program and complete those placed, or cut the
// power partway.
func (s *ftlScript) write(cutting bool) {
	n := 1 + int(s.next()%4)
	base, mode := addr.LPN(s.next()), s.next()
	s.makeRoom()
	tks := make([]Ticket, 0, n)
	for i := range n {
		lpn := base + addr.LPN(i) // a sequential stream extends the open run
		if mode&1 != 0 {
			lpn = addr.LPN(s.next())
		}
		tk, ok := s.beginWrite(lpn)
		if !ok {
			break
		}
		tks = append(tks, tk)
	}
	if n = len(tks); n == 0 {
		return
	}
	done := n
	if cutting {
		done = int(s.next()) % n
	}
	for _, tk := range tks[:done] {
		s.program(tk)
	}
	// A collection may run before the batch completes, once a lane has
	// rolled past a block the batch's tickets still hold.
	if mode&4 != 0 {
		if slices.ContainsFunc(tks, func(tk Ticket) bool {
			return !slices.Contains(s.f.active, s.f.geo.BlockOf(tk.PPN))
		}) {
			s.rolled++
		}
		s.inFlight = tks
		s.collect(false)
		s.inFlight = nil
	}
	// Pages finish programming on their channels in either order.
	for i := range tks[:done] {
		if mode&2 != 0 {
			i = done - 1 - i
		}
		s.f.CompleteWrite(tks[i], s.now)
		s.check("CompleteWrite")
	}
	if done < n {
		s.cut(tks[done], tks[done+1:])
	}
}

// collect runs one collection as the script dictates: plan, perhaps let
// host writes take every free block they may, migrate the victim's valid
// pages (a host write may overwrite one mid-migration, or the power may
// fail), perhaps commit the journal, then erase the victim, or fail
// mid-erase. Every move must find a page, and GCFinish must erase the
// victim exactly when no uncommitted record pins it. collect reports
// whether the victim was erased.
func (s *ftlScript) collect(scripted bool) bool {
	want := s.greedyVictim()
	plan := s.f.GCPlan()
	s.check("GCPlan")
	got := -1
	if plan != nil {
		got = plan.Victim
	}
	if got != want {
		s.t.Fatalf("GCPlan picked block %d, the greedy rule picks %d", got, want)
	}
	if plan == nil {
		return false
	}
	if s.holdsInFlight(plan.Victim) {
		s.t.Fatalf("GCPlan picked block %d, which holds tickets in flight", plan.Victim)
	}
	if len(plan.Moves) != s.f.ValidPages(plan.Victim) {
		s.t.Fatalf("GCPlan moves %d pages of block %d, which holds %d",
			len(plan.Moves), plan.Victim, s.f.ValidPages(plan.Victim))
	}
	mode := byte(0)
	if scripted {
		mode = s.next()
	}
	if mode&16 != 0 {
		s.crowd()
	}
	fps := make([]content.Fingerprint, len(plan.Moves))
	for i, mv := range plan.Moves {
		if mode&1 != 0 && s.next()&1 != 0 {
			if tk, ok := s.beginWrite(mv.LPN); ok {
				s.program(tk)
				s.f.CompleteWrite(tk, s.now)
				s.check("CompleteWrite mid-migration")
			}
		}
		free, hostFull := s.f.FreeBlocks(), !s.f.CanReserve()
		tk, err := s.f.BeginMove(mv.LPN)
		s.must(err, "BeginMove")
		if hostFull && s.f.FreeBlocks() < free {
			s.reserveMoves++
		}
		if mode&2 != 0 && s.next()%8 == 0 {
			s.cut(tk, nil)
			return false
		}
		res, err := s.chip.Read(mv.From)
		s.must(err, "Read")
		fps[i] = res.FP
		s.must(s.chip.Program(tk.PPN, res.FP), "Program of a move")
		s.f.CompleteMove(tk, mv.From, s.now)
		s.check("CompleteMove")
	}
	if mode&8 != 0 {
		s.f.ForceCloseRun()
		s.f.CommitJournal()
		s.check("CommitJournal before the erase")
	}
	// The move records, and host overwrites of the victim's pages, pin
	// the victim until they commit: a crash would revert their logical
	// pages into it.
	pinned := s.f.blocks[plan.Victim].pinned > 0
	if mode&4 != 0 && !pinned {
		s.must(s.chip.ErasePartial(plan.Victim, float64(s.next())/256), "ErasePartial")
		s.f.Crash(s.now)
		s.check("Crash mid-erase")
		return false
	}
	if err := s.f.GCFinish(plan.Victim); err != nil {
		if !pinned {
			s.t.Fatalf("GCFinish refused unpinned block %d: %v", plan.Victim, err)
		}
		for i, mv := range plan.Moves {
			if res, err := s.chip.Read(mv.From); err != nil || res.FP != fps[i] {
				s.t.Fatalf("GCFinish refused block %d but changed page %v", plan.Victim, mv.From)
			}
		}
		return false
	}
	if pinned {
		s.t.Fatalf("GCFinish erased block %d under uncommitted records", plan.Victim)
	}
	s.check("GCFinish")
	return true
}

// crowd has host writes take every page and free block they may, so the
// moves of the collection under way compete for the last free blocks.
func (s *ftlScript) crowd() {
	for {
		tk, ok := s.beginWrite(addr.LPN(s.next()))
		if !ok {
			break
		}
		s.program(tk)
		s.f.CompleteWrite(tk, s.now)
	}
	s.check("host writes crowding a collection")
}

// holdsInFlight reports whether block b holds a ticket of s.inFlight.
func (s *ftlScript) holdsInFlight(b int) bool {
	return slices.ContainsFunc(s.inFlight, func(tk Ticket) bool { return s.f.geo.BlockOf(tk.PPN) == b })
}

// greedyVictim is GCPlan's rule applied block by block, with in-flight
// tickets taken from the script's own record: the opened block with the fewest valid pages, lowest index first, that
// is not free, active, the GC frontier or pinned, holds no ticket in
// flight, and whose valid pages fit the frontier's room plus the free
// blocks. -1 if there is none.
func (s *ftlScript) greedyVictim() int {
	f, ppb := s.f, s.f.geo.PagesPerBlock
	room := f.FreeBlocks() * ppb
	if front := f.active[f.cfg.Lanes]; front >= 0 {
		room += ppb - f.nextIdx[f.cfg.Lanes]
	}
	best, bestValid := -1, 0
	for b := range len(f.blocks) { // blocks past these never opened and are free
		if slices.Contains(f.active, b) || f.blocks[b].pinned > 0 || s.holdsInFlight(b) ||
			slices.ContainsFunc(f.recycled, func(fb freeBlock) bool { return fb.idx == b }) {
			continue
		}
		if v := f.ValidPages(b); v <= room && (best < 0 || v < bestValid) {
			best, bestValid = b, v
		}
	}
	return best
}

func (s *ftlScript) run() {
	for len(s.ops) > 0 {
		s.now = s.now.Add(sim.Duration(s.next()) * 100 * sim.Microsecond)
		switch s.next() % 8 {
		case 0, 1:
			s.write(false)
		case 2:
			s.write(true)
		case 3:
			s.f.CommitJournal()
			s.check("CommitJournal")
		case 4:
			s.f.MaybeCloseRun(s.now)
			s.check("MaybeCloseRun")
		case 5:
			s.f.ForceCloseRun()
			s.check("ForceCloseRun")
		case 6:
			s.f.Crash(s.now)
			s.check("Crash")
		case 7:
			s.collect(true)
		}
	}
}

// churnScript overwrites the 16 user pages round after round, with a
// scripted collection, commit or crash between rounds: enough writes to
// use every never-used block and recycle them.
func churnScript(rounds int) []byte {
	var ops []byte
	for r := range rounds {
		ops = append(ops, 1, 0, 3, byte(r*4), 0) // four sequential pages
		if r%2 == 0 {
			ops = append(ops, 1, 3) // commit
		} else {
			ops = append(ops, 1, 7, 0) // collect
		}
	}
	return ops
}

// rolloverScript writes three pages at a time with a collection planned
// before each batch completes. Two lanes share each batch unevenly, so
// every third batch rolls a lane over past a block its tickets hold.
func rolloverScript(rounds int) []byte {
	var ops []byte
	for r := range rounds {
		ops = append(ops, 1, 0, 2, byte(r*3), 4) // three sequential pages, collect mid-batch
		if r%4 == 3 {
			ops = append(ops, 1, 3) // commit
		}
	}
	return ops
}

// crowdScript churns the drive, then runs collections during which host
// writes first take every free block they may.
func crowdScript(rounds int) []byte {
	ops := churnScript(8)
	for r := range rounds {
		ops = append(ops, 1, 0, 3, byte(r*4), 0) // four sequential pages
		ops = append(ops, 1, 7, 16)              // collect, crowded
		ops = append(ops, 1, 3)                  // commit
	}
	return ops
}

// FuzzFTL runs byte scripts of writes, cuts, journal commits, crashes and
// collections and checks the FTL's invariants after every call.
func FuzzFTL(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 3, 0, 0, 0, 1, 3, 4, 0, 1, 0, 0, 6})        // a sequential run, then a crash
	f.Add([]byte{0, 0, 3, 2, 1, 5, 9, 13, 0, 2, 3, 0, 1, 1, 0, 3}) // scattered writes, cut mid-batch
	f.Add(churnScript(40))
	// GC's greedy pick is the newest block opened.
	f.Add([]byte("000017007C0007000078007000700007010000007Z0000000C00700001700070000700007000000000200007000"))
	// A crash after an erase with the move records uncommitted aliased
	// two logical pages on one physical page once the block was reused.
	f.Add([]byte("007000700700000100000710C00110007000C00720070007000710 $007000C00700070007100C00700070007000C00770007000C007,0007000C00700007700C007C000700021001000700000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"))
	// A collection is planned with no free block left and little room in
	// the frontier: a victim whose moves do not fit must not be picked,
	// or a BeginMove runs out.
	f.Add([]byte("000000070000000007100070007001010000100007000077000700007$007 0700"))
	f.Add(rolloverScript(24))
	f.Add(crowdScript(24))
	f.Fuzz(func(t *testing.T, ops []byte) { newFTLScript(t, ops).run() })
}

// TestSeedScriptsReachModes checks that the rollover and crowd seeds do
// what they are for: collections are planned while a lane has rolled
// past a block with tickets in flight, and moves open blocks from the GC
// reserve after host writes took every block they may.
func TestSeedScriptsReachModes(t *testing.T) {
	s := newFTLScript(t, rolloverScript(24))
	s.run()
	c := newFTLScript(t, crowdScript(24))
	c.run()
	t.Logf("rolled %d, reserve moves %d, collections %d", s.rolled, c.reserveMoves, c.f.Stats().GCCollections)
	if s.rolled == 0 || c.reserveMoves == 0 {
		t.Fatalf("rollover seed planned %d collections past a rolled lane; crowd seed opened %d reserve blocks",
			s.rolled, c.reserveMoves)
	}
}

// TestChurnScriptRecycles checks that the tiny drive forces what the
// fuzzer is for: every never-used block opens and GC recycles blocks.
func TestChurnScriptRecycles(t *testing.T) {
	s := newFTLScript(t, churnScript(40))
	s.run()
	if len(s.f.blocks) != s.f.geo.Blocks() || s.f.Stats().GCCollections == 0 {
		t.Fatalf("churn opened %d of %d blocks with %d collections",
			len(s.f.blocks), s.f.geo.Blocks(), s.f.Stats().GCCollections)
	}
}
