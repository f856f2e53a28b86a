// Package ftl implements the flash translation layer of the simulated SSD:
// a page-level logical-to-physical mapping held in the controller's DRAM,
// a journal that persists mapping updates to flash in batches, detection of
// sequential streams as run extents (the paper: for sequential accesses the
// FTL "only keeps the first address in the mapping table"), an out-of-band
// (OOB) scan that recovers the tail of the active blocks after a crash,
// and greedy garbage collection with wear-aware block allocation. GC
// migrates pages into a frontier block of its own and may spend a reserve
// of free blocks that host writes cannot, so a collection that has
// started always finishes.
//
// The crash behaviour is the heart of the model: mapping updates that were
// neither journaled nor recoverable by the OOB scan revert to the previous
// mapping, which is exactly the mechanism behind false write-acknowledge
// (FWA) failures that persist even when the volatile data cache is
// disabled.
package ftl

import (
	"errors"
	"fmt"

	"powerfail/internal/addr"
	"powerfail/internal/flash"
	"powerfail/internal/sim"
)

// Config tunes the FTL policies.
type Config struct {
	// UserPages is the host-visible capacity in 4 KiB pages.
	UserPages int64
	// Lanes is the number of parallel allocation streams; the controller
	// maps lanes onto flash channels.
	Lanes int
	// GCLowBlocks triggers garbage collection when free blocks drop below
	// it; GCHighBlocks is the stop threshold.
	GCLowBlocks  int
	GCHighBlocks int
	// JournalBatchPages commits the journal when this many uncommitted
	// single-page records accumulate (closed runs count once per record).
	JournalBatchPages int
	// RunMaxPages closes an open sequential run at this length.
	RunMaxPages int
	// RunStaleAfter closes an open run that has not grown for this long.
	RunStaleAfter sim.Duration
	// ScanWindowPages bounds the OOB crash-recovery scan: the most recent
	// fully programmed pages of each lane's active block whose mapping can
	// be rebuilt without the journal.
	ScanWindowPages int
}

// DefaultConfig returns the policy defaults used by the stock profiles.
func DefaultConfig(userPages int64, lanes int) Config {
	return Config{
		UserPages:         userPages,
		Lanes:             lanes,
		GCLowBlocks:       4,
		GCHighBlocks:      8,
		JournalBatchPages: 256,
		RunMaxPages:       1024,
		RunStaleAfter:     200 * sim.Millisecond,
		ScanWindowPages:   64,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.UserPages <= 0 {
		return fmt.Errorf("ftl: UserPages must be positive, got %d", c.UserPages)
	}
	if c.Lanes <= 0 {
		return fmt.Errorf("ftl: Lanes must be positive, got %d", c.Lanes)
	}
	if c.GCLowBlocks < 1 || c.GCHighBlocks < c.GCLowBlocks {
		return fmt.Errorf("ftl: bad GC thresholds low=%d high=%d", c.GCLowBlocks, c.GCHighBlocks)
	}
	if c.JournalBatchPages <= 0 || c.RunMaxPages <= 0 {
		return fmt.Errorf("ftl: journal/run sizes must be positive")
	}
	if c.ScanWindowPages < 0 {
		return fmt.Errorf("ftl: ScanWindowPages must be non-negative")
	}
	return nil
}

// Ticket reserves a physical page for a logical write. The controller
// programs the page on a channel and then calls CompleteWrite (host data)
// or CompleteMove (GC migration), or AbortWrite if power was lost first.
type Ticket struct {
	LPN addr.LPN
	PPN addr.PPN
}

// record is one uncommitted mapping update held in controller DRAM.
type record struct {
	lpn addr.LPN
	old addr.PPN // mapping before this update (InvalidPPN if none)
	new addr.PPN
}

type openRun struct {
	recs    []record
	minLPN  addr.LPN
	maxLPN  addr.LPN
	touched sim.Time
}

// runGapTolerance lets a sequential run absorb mapping updates that arrive
// slightly out of order: flush batches complete channel by channel, so a
// logically contiguous stream commits its mappings permuted within roughly
// one drain's worth of pages.
const runGapTolerance = 256

// freeBlock is a free block keyed for allocation: fewest erases first
// (dynamic wear levelling), then lowest index for determinism.
type freeBlock struct {
	idx    int
	erases int
}

func (a freeBlock) less(b freeBlock) bool {
	if a.erases != b.erases {
		return a.erases < b.erases
	}
	return a.idx < b.idx
}

// freeHeap is a binary min-heap of recycled blocks.
type freeHeap []freeBlock

func (h *freeHeap) push(b freeBlock) {
	*h = append(*h, b)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if !a[i].less(a[p]) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (h *freeHeap) pop() freeBlock {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < n && a[l].less(a[m]) {
			m = l
		}
		if r < n && a[r].less(a[m]) {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	*h = a
	return top
}

// Stats counts FTL activity.
type Stats struct {
	WritesMapped   int64
	MovesCompleted int64
	RunsClosed     int64
	Commits        int64
	CommittedRecs  int64
	Crashes        int64
	LostMappings   int64
	RecoveredByOOB int64
	GCCollections  int64
	WastedPages    int64
}

// CrashStats summarises one power-loss event.
type CrashStats struct {
	Uncommitted int // mapping records at risk
	Recovered   int // rebuilt by the OOB scan
	Lost        int // logical pages whose mapping reverted
}

// GCPlan describes one collection: migrate Moves out of Victim, commit
// the journal records that pin it, then call GCFinish to erase it.
type GCPlan struct {
	Victim int
	Moves  []Move
}

// Move is a single valid-page migration.
type Move struct {
	LPN  addr.LPN
	From addr.PPN
}

// FTL is the translation layer state. It is a pure policy object: it has
// no timers of its own; the controller invokes it at the right simulated
// instants.
type FTL struct {
	cfg  Config
	chip *flash.Chip
	geo  flash.Geometry

	// l2p holds 1 + the physical page of every mapped logical page, 0
	// for unmapped ones, in 4 bytes (New bounds the geometry below
	// maxPages); mapped counts its entries.
	l2p    addr.Table[int32]
	mapped int

	// blocks holds the state of every block that has ever opened.
	// allocBlock opens never-used blocks strictly in index order and GC
	// recycles only opened ones, so the opened blocks are exactly
	// 0..len(blocks)-1, and len(blocks) is the next never-used block:
	// blocks grows by one entry per first open, with the blocks a run
	// touches, not with the geometry. revLen counts the mapped
	// reverse-map entries.
	blocks []blockState
	revLen int

	// Free blocks are the never-allocated blocks len(blocks)..Blocks()-1,
	// all with zero erases, plus a heap of blocks recycled by GC.
	// allocBlock takes the smaller of the two heads in freeBlock order,
	// which is the order one heap of every free block would give.
	recycled freeHeap
	// active holds the active block of each lane, -1 if none, and after
	// the lanes the GC frontier: the block BeginMove fills, so one
	// collection opens at most one block. nextIdx holds the next page
	// index each of them reserves.
	active  []int
	nextIdx []int

	pending []record
	run     openRun
	runOpen bool
	seqLast addr.LPN // last written lpn, for run detection

	gcMark  []bool // GCPlan scratch: free or active opened blocks
	crashed bool   // no page reserved since the last Crash

	// Crash scratch, reused crash to crash.
	atRisk  []record
	groupOf map[addr.LPN]int32
	groups  []crashGroup

	stats Stats
}

// blockState is the bookkeeping of one opened block.
type blockState struct {
	valid    int32   // live pages
	pinned   int32   // uncommitted-journal references (GC must skip)
	inFlight int32   // reserved pages not yet completed or aborted (GC must skip)
	rev      []int32 // reverse map: the logical page of each page, noLPN if none
}

// crashGroup folds the at-risk records of one logical page: the mapping
// it reverts to and whether the OOB scan recovered it.
type crashGroup struct {
	lpn       addr.LPN
	final     addr.PPN
	recovered bool
}

// noLPN marks an unmapped reverse-map entry.
const noLPN int32 = -1

// maxPages bounds the geometry New accepts (8 TiB of 4 KiB pages), so
// every physical page + 1 and every logical page fits the int32 maps.
const maxPages = 1 << 31

// New builds an FTL over the chip. All blocks start free.
func New(chip *flash.Chip, cfg Config) (*FTL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geo := chip.Geometry()
	if geo.Pages() >= maxPages {
		return nil, fmt.Errorf("ftl: geometry %s has %d pages, want fewer than %d", geo, geo.Pages(), maxPages)
	}
	minPages := cfg.UserPages + int64((cfg.GCHighBlocks+cfg.Lanes+1+gcReserve)*geo.PagesPerBlock)
	if geo.Pages() < minPages {
		return nil, fmt.Errorf("ftl: geometry %s too small for %d user pages plus reserves",
			geo, cfg.UserPages)
	}
	f := &FTL{
		cfg:     cfg,
		chip:    chip,
		geo:     geo,
		active:  make([]int, cfg.Lanes+1),
		nextIdx: make([]int, cfg.Lanes+1),
		seqLast: -2,
		groupOf: make(map[addr.LPN]int32),
	}
	for i := range f.active {
		f.active[i] = -1
	}
	return f, nil
}

// Config returns the FTL configuration.
func (f *FTL) Config() Config { return f.cfg }

// UserPages returns the host-visible capacity in pages.
func (f *FTL) UserPages() int64 { return f.cfg.UserPages }

// Stats returns a snapshot of the counters.
func (f *FTL) Stats() Stats { return f.stats }

// FreeBlocks returns the number of blocks available for allocation,
// the GC reserve included.
func (f *FTL) FreeBlocks() int { return f.geo.Blocks() - len(f.blocks) + len(f.recycled) }

// gcReserve is the number of free blocks only BeginMove may open. Host
// writes and the GC thresholds see the free pool without them: a host
// write that finds no other block waits for GC. GCPlan admits a victim
// only if its moves fit the frontier's room plus the free blocks, and
// host writes cannot take the last gcReserve, so the moves of a started
// collection always find pages. One block is not enough: a cut can
// abort a collection whose frontier took the last free block, and then
// no victim may fit and GC stalls.
const gcReserve = 2

// hostFree returns the free blocks host writes may open.
func (f *FTL) hostFree() int { return f.FreeBlocks() - gcReserve }

// PendingRecords returns uncommitted journal records (excluding the open run).
func (f *FTL) PendingRecords() int { return len(f.pending) }

// OpenRunLen returns the length of the open sequential run.
func (f *FTL) OpenRunLen() int {
	if !f.runOpen {
		return 0
	}
	return len(f.run.recs)
}

// Lookup translates a logical page. ok is false for never-written pages.
func (f *FTL) Lookup(lpn addr.LPN) (addr.PPN, bool) {
	p := f.l2p.Get(lpn)
	return addr.PPN(p) - 1, p != 0
}

// ErrNoSpace is BeginWrite's refusal: no page is left that host writes
// may take. It changes nothing; the caller waits for GC to make room.
var ErrNoSpace = errors.New("ftl: out of free blocks")

// ErrBadLPN reports a logical address beyond the exported capacity.
var ErrBadLPN = errors.New("ftl: logical page out of range")

// allocBlock opens a free block; the caller checks that one is free.
func (f *FTL) allocBlock() int {
	fresh := len(f.blocks)
	if len(f.recycled) > 0 && (fresh == f.geo.Blocks() || f.recycled[0].less(freeBlock{idx: fresh})) {
		return f.recycled.pop().idx
	}
	rev := make([]int32, f.geo.PagesPerBlock)
	for i := range rev {
		rev[i] = noLPN
	}
	f.blocks = append(f.blocks, blockState{rev: rev})
	return fresh
}

// revSlot returns the reverse-map entry of ppn, nil if its block never
// opened.
func (f *FTL) revSlot(ppn addr.PPN) *int32 {
	b := f.geo.BlockOf(ppn)
	if uint(b) >= uint(len(f.blocks)) {
		return nil
	}
	return &f.blocks[b].rev[f.geo.PageOf(ppn)]
}

// lpnAt returns the logical page mapped to ppn.
func (f *FTL) lpnAt(ppn addr.PPN) (addr.LPN, bool) {
	if e := f.revSlot(ppn); e != nil && *e != noLPN {
		return addr.LPN(*e), true
	}
	return 0, false
}

// setRev maps ppn back to lpn.
func (f *FTL) setRev(ppn addr.PPN, lpn addr.LPN) {
	e := f.revSlot(ppn)
	if *e == noLPN {
		f.revLen++
	}
	*e = int32(lpn)
}

// clearRev unmaps ppn.
func (f *FTL) clearRev(ppn addr.PPN) {
	if e := f.revSlot(ppn); e != nil && *e != noLPN {
		*e = noLPN
		f.revLen--
	}
}

// BeginWrite reserves the next physical page for lpn. Sequential streams
// stay on one lane so their pages remain physically contiguous; other
// writes round-robin across lanes. It returns ErrNoSpace rather than open
// a block of the GC reserve.
func (f *FTL) BeginWrite(lpn addr.LPN) (Ticket, error) {
	if lpn < 0 || int64(lpn) >= f.cfg.UserPages {
		return Ticket{}, ErrBadLPN
	}
	// Writes stripe round-robin across lanes regardless of sequentiality;
	// sequential runs are a *mapping* construct (lpn-contiguous), not a
	// physical-placement one, so sequential streams keep full channel
	// parallelism.
	t, err := f.reserve(int(f.stats.WritesMapped)%f.cfg.Lanes, lpn, f.hostFree())
	if err == nil {
		f.stats.WritesMapped++
	}
	return t, err
}

// BeginMove reserves the next page of the GC frontier for a migration of
// lpn. It may spend the GC reserve, and fails only if the collection's
// moves did not fit the room GCPlan checked.
func (f *FTL) BeginMove(lpn addr.LPN) (Ticket, error) {
	return f.reserve(f.cfg.Lanes, lpn, f.FreeBlocks())
}

// reserve takes the next page of active block i for lpn, opening a free
// block when the current one is full; spendable is the number of free
// blocks the caller may open.
func (f *FTL) reserve(i int, lpn addr.LPN, spendable int) (Ticket, error) {
	blk := f.active[i]
	if blk < 0 || f.nextIdx[i] >= f.geo.PagesPerBlock {
		if spendable <= 0 {
			return Ticket{}, ErrNoSpace
		}
		blk = f.allocBlock()
		f.active[i], f.nextIdx[i] = blk, 0
	}
	ppn := f.geo.PPNOf(blk, f.nextIdx[i])
	f.nextIdx[i]++
	f.blocks[blk].inFlight++
	f.crashed = false
	return Ticket{LPN: lpn, PPN: ppn}, nil
}

// CanReserve reports whether the next BeginWrite would succeed: its lane
// has room left in its active block, or a free block outside the GC
// reserve to open.
func (f *FTL) CanReserve() bool {
	lane := int(f.stats.WritesMapped) % f.cfg.Lanes
	return f.active[lane] >= 0 && f.nextIdx[lane] < f.geo.PagesPerBlock || f.hostFree() > 0
}

// CompleteWrite applies a host write that finished programming: the
// mapping flips to the new page and the update joins the journal (as part
// of a sequential run when it extends one).
func (f *FTL) CompleteWrite(t Ticket, now sim.Time) {
	old := addr.InvalidPPN
	e := f.l2p.Ref(t.LPN)
	if *e != 0 {
		cur := addr.PPN(*e) - 1
		old = cur
		st := &f.blocks[f.geo.BlockOf(cur)]
		st.valid--
		st.pinned++
		f.clearRev(cur)
	} else {
		f.mapped++
	}
	*e = int32(t.PPN + 1)
	f.setRev(t.PPN, t.LPN)
	dst := &f.blocks[f.geo.BlockOf(t.PPN)]
	dst.valid++
	dst.inFlight--

	rec := record{lpn: t.LPN, old: old, new: t.PPN}
	extends := f.runOpen && len(f.run.recs) < f.cfg.RunMaxPages &&
		t.LPN >= f.run.minLPN && t.LPN <= f.run.maxLPN+runGapTolerance
	if extends {
		f.run.recs = append(f.run.recs, rec)
		if t.LPN > f.run.maxLPN {
			f.run.maxLPN = t.LPN
		}
		f.run.touched = now
	} else {
		f.closeRun()
		f.run = openRun{recs: append(f.run.recs[:0], rec), minLPN: t.LPN, maxLPN: t.LPN, touched: now}
		f.runOpen = true
	}
	f.seqLast = t.LPN
}

// CompleteMove applies a GC migration if the logical page still points at
// the source; otherwise the destination page is wasted and the move is
// dropped (the host overwrote the data mid-migration).
func (f *FTL) CompleteMove(t Ticket, from addr.PPN, now sim.Time) bool {
	dst := &f.blocks[f.geo.BlockOf(t.PPN)]
	dst.inFlight--
	e := f.l2p.Ref(t.LPN)
	if addr.PPN(*e) != from+1 {
		f.stats.WastedPages++
		return false
	}
	st := &f.blocks[f.geo.BlockOf(from)]
	st.valid--
	st.pinned++
	f.clearRev(from)
	*e = int32(t.PPN + 1)
	f.setRev(t.PPN, t.LPN)
	dst.valid++
	f.closeRun()
	f.pending = append(f.pending, record{lpn: t.LPN, old: from, new: t.PPN})
	f.stats.MovesCompleted++
	return true
}

// AbortWrite releases a ticket whose program never completed (power loss).
// The physical page is wasted; the mapping never changed.
func (f *FTL) AbortWrite(t Ticket) {
	f.blocks[f.geo.BlockOf(t.PPN)].inFlight--
	f.stats.WastedPages++
}

func (f *FTL) closeRun() {
	if !f.runOpen {
		return
	}
	f.pending = append(f.pending, f.run.recs...)
	f.stats.RunsClosed++
	f.runOpen = false
}

// ForceCloseRun unconditionally moves the open run into the pending
// journal batch; the supercapacitor panic flush uses it before committing.
func (f *FTL) ForceCloseRun() { f.closeRun() }

// MaybeCloseRun closes the open run if it has grown stale or oversized.
// The controller calls this from its periodic journal tick.
func (f *FTL) MaybeCloseRun(now sim.Time) {
	if !f.runOpen {
		return
	}
	if len(f.run.recs) >= f.cfg.RunMaxPages || now.Sub(f.run.touched) >= f.cfg.RunStaleAfter {
		f.closeRun()
	}
}

// CommitDue reports whether enough records are pending to force a commit.
func (f *FTL) CommitDue() bool { return len(f.pending) >= f.cfg.JournalBatchPages }

// RecordsPerMetaPage is how many journal records one metadata page holds;
// the controller charges a commit the program time of its pages.
const RecordsPerMetaPage = 512

// CommitJournal makes every pending record durable. Open runs stay open
// and remain at risk.
func (f *FTL) CommitJournal() {
	if len(f.pending) == 0 {
		return
	}
	for _, r := range f.pending {
		if r.old != addr.InvalidPPN {
			f.blocks[f.geo.BlockOf(r.old)].pinned--
		}
	}
	f.stats.Commits++
	f.stats.CommittedRecs += int64(len(f.pending))
	f.pending = f.pending[:0]
}

// inScan reports whether the OOB scan recovers ppn: it is one of the most
// recent fully programmed pages of a lane's active block. The GC frontier
// is not scanned; a move the journal lost reverts to its source page,
// which GC erases only after the commit.
func (f *FTL) inScan(ppn addr.PPN) bool {
	if f.cfg.ScanWindowPages == 0 {
		return false
	}
	blk := f.geo.BlockOf(ppn)
	for _, b := range f.active[:f.cfg.Lanes] {
		if b < 0 || b != blk {
			continue
		}
		top := f.chip.NextPage(blk)
		pi := f.geo.PageOf(ppn)
		return pi < top && pi >= top-f.cfg.ScanWindowPages && f.chip.FullyProgrammed(ppn)
	}
	return false
}

// Crash models power loss: every uncommitted mapping update is lost unless
// the OOB scan can rebuild it. Reverted logical pages point back at their
// previous physical pages (the FWA mechanism). The allocation pointers are
// re-synchronised with the chip, since reserved-but-unprogrammed pages are
// still erased and reusable. The controller completes or aborts every
// ticket first.
func (f *FTL) Crash(now sim.Time) CrashStats {
	f.stats.Crashes++
	f.crashed = true
	// Gather every at-risk record in application order.
	atRisk := append(f.atRisk[:0], f.pending...)
	if f.runOpen {
		atRisk = append(atRisk, f.run.recs...)
	}
	f.atRisk = atRisk
	f.pending = f.pending[:0]
	f.runOpen = false

	cs := CrashStats{Uncommitted: len(atRisk)}
	// Fold the records per logical page in order of first appearance:
	// a page reverts to the mapping before its first update unless the
	// scan recovers a later one, and the newest recovered update wins.
	clear(f.groupOf)
	groups := f.groups[:0]
	for _, r := range atRisk {
		gi, seen := f.groupOf[r.lpn]
		if !seen {
			gi = int32(len(groups))
			f.groupOf[r.lpn] = gi
			groups = append(groups, crashGroup{lpn: r.lpn, final: r.old})
		}
		if f.inScan(r.new) {
			groups[gi].final = r.new
			groups[gi].recovered = true
		}
	}
	f.groups = groups
	for _, g := range groups {
		if g.recovered {
			cs.Recovered++
			f.stats.RecoveredByOOB++
		}
		lpn, final := g.lpn, g.final
		e := f.l2p.Ref(lpn)
		if *e != 0 && addr.PPN(*e) == final+1 {
			continue // newest update survived
		}
		if *e != 0 {
			cur := addr.PPN(*e) - 1
			f.blocks[f.geo.BlockOf(cur)].valid--
			f.clearRev(cur)
			f.mapped--
		}
		if final != addr.InvalidPPN {
			*e = int32(final + 1)
			f.setRev(final, lpn)
			f.blocks[f.geo.BlockOf(final)].valid++
			f.mapped++
		} else {
			*e = 0
		}
		cs.Lost++
		f.stats.LostMappings++
	}
	// Every pin belongs to an uncommitted record, and every uncommitted
	// record was at risk, so unpinning their old blocks clears them all.
	for _, r := range atRisk {
		if r.old != addr.InvalidPPN {
			f.blocks[f.geo.BlockOf(r.old)].pinned = 0
		}
	}
	// Re-synchronise the lanes' and the frontier's allocation pointers
	// with the chip: reserved pages that were never programmed are still
	// erased and must be reused, because NAND programs strictly
	// sequentially within a block.
	for i, blk := range f.active {
		if blk >= 0 {
			f.nextIdx[i] = f.chip.NextPage(blk)
		}
	}
	return cs
}

// RecoverDuration estimates the mount time after a crash: journal replay
// plus the OOB scan reads.
func (f *FTL) RecoverDuration() sim.Duration {
	scanReads := f.cfg.ScanWindowPages * f.cfg.Lanes
	return 10*sim.Millisecond + sim.Duration(scanReads)*f.chip.Timing().ReadPage
}

// NeedGC reports whether free space is low enough to require collection.
func (f *FTL) NeedGC() bool { return f.hostFree() < f.cfg.GCLowBlocks }

// GCSatisfied reports whether collection may stop.
func (f *FTL) GCSatisfied() bool { return f.hostFree() >= f.cfg.GCHighBlocks }

// GCPlan picks a victim block (greedy: fewest valid pages, skipping free,
// active, journal-pinned and in-flight blocks, and blocks whose valid
// pages do not fit the frontier's room plus the free blocks) and lists
// the migrations required. It returns nil when no block is collectable.
// A block with reservations in flight is skipped because its queued
// programs land after the plan and would be erased with it.
func (f *FTL) GCPlan() *GCPlan {
	// Blocks that never opened are free; mark the recycled free blocks,
	// the active ones and the frontier, all opened.
	if n := len(f.blocks) - len(f.gcMark); n > 0 {
		f.gcMark = append(f.gcMark, make([]bool, n)...)
	}
	mark := f.gcMark
	for _, fb := range f.recycled {
		mark[fb.idx] = true
	}
	for _, b := range f.active {
		if b >= 0 {
			mark[b] = true
		}
	}
	ppb := f.geo.PagesPerBlock
	room := f.FreeBlocks() * ppb
	if lanes := f.cfg.Lanes; f.active[lanes] >= 0 {
		room += ppb - f.nextIdx[lanes]
	}
	best, bestValid := -1, int32(room)+1
	for b := range f.blocks {
		st := &f.blocks[b]
		if mark[b] || st.pinned > 0 || st.inFlight > 0 {
			continue
		}
		if st.valid < bestValid {
			best, bestValid = b, st.valid
		}
	}
	clear(mark[:len(f.blocks)])
	if best < 0 {
		return nil
	}
	plan := &GCPlan{Victim: best}
	for pi := 0; pi < ppb; pi++ {
		ppn := f.geo.PPNOf(best, pi)
		if lpn, ok := f.lpnAt(ppn); ok {
			plan.Moves = append(plan.Moves, Move{LPN: lpn, From: ppn})
		}
	}
	return plan
}

// GCFinish erases a victim whose pages have all migrated and returns it to
// the free pool. While an uncommitted record still pins the victim, a
// crash could revert a logical page into it, so GCFinish refuses with an
// error and leaves the chip untouched.
func (f *FTL) GCFinish(victim int) error {
	if n := f.blocks[victim].pinned; n > 0 {
		return fmt.Errorf("ftl: block %d is pinned by %d uncommitted records", victim, n)
	}
	if err := f.chip.Erase(victim); err != nil {
		return fmt.Errorf("ftl: erase block %d: %w", victim, err)
	}
	f.blocks[victim].valid = 0
	f.recycled.push(freeBlock{idx: victim, erases: f.chip.EraseCount(victim)})
	f.stats.GCCollections++
	return nil
}

// ValidPages returns the live-page count of a block (for tests); blocks
// that never opened hold none.
func (f *FTL) ValidPages(block int) int {
	if uint(block) >= uint(len(f.blocks)) {
		return 0
	}
	return int(f.blocks[block].valid)
}

// CheckInvariants verifies internal consistency; tests call it after
// randomised operation sequences.
func (f *FTL) CheckInvariants() error {
	// Blocks that never opened hold no mappings and no pins: lpnAt
	// rejects their pages, and a pin's old page was once mapped.
	counts := make([]int32, len(f.blocks))
	n := 0
	for lpn, e := range f.l2p.Range {
		ppn := addr.PPN(e) - 1
		if got, ok := f.lpnAt(ppn); !ok || got != lpn {
			return fmt.Errorf("ftl: l2p/p2l mismatch at %v -> %v", lpn, ppn)
		}
		counts[f.geo.BlockOf(ppn)]++
		n++
	}
	if n != f.mapped || n != f.revLen {
		return fmt.Errorf("ftl: map size mismatch l2p=%d mapped=%d p2l=%d", n, f.mapped, f.revLen)
	}
	for b, want := range counts {
		if got := f.blocks[b].valid; got != want {
			return fmt.Errorf("ftl: block %d valid=%d want %d", b, got, want)
		}
	}
	// Pins count the uncommitted records whose old page lies in a block.
	clear(counts)
	pin := func(recs []record) {
		for _, r := range recs {
			if r.old != addr.InvalidPPN {
				counts[f.geo.BlockOf(r.old)]++
			}
		}
	}
	pin(f.pending)
	if f.runOpen {
		pin(f.run.recs)
	}
	for b, want := range counts {
		if got := f.blocks[b].pinned; got != want {
			return fmt.Errorf("ftl: block %d pinned=%d want %d", b, got, want)
		}
	}
	// Every ticket is resolved before a crash, so none is in flight
	// until the next reservation.
	for b := range f.blocks {
		if n := f.blocks[b].inFlight; n < 0 || f.crashed && n != 0 {
			return fmt.Errorf("ftl: block %d has %d reservations in flight", b, n)
		}
	}
	return nil
}
