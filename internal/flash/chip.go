package flash

import (
	"errors"
	"fmt"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/sim"
)

// Errors returned by chip operations. These signal FTL bugs (ordering or
// double-program violations), not simulated media failures.
var (
	ErrNotErased    = errors.New("flash: program on a page that is not erased")
	ErrProgramOrder = errors.New("flash: pages must be programmed sequentially within a block")
	ErrBadAddress   = errors.New("flash: address out of range")
	ErrNeedsErase   = errors.New("flash: block needs a full erase before reuse")
)

// PageState describes the condition of a physical page.
type PageState uint8

// Page states.
const (
	PageErased PageState = iota
	PageProgrammed
	// PageCorrupt marks a page whose program was interrupted or whose
	// cells were disturbed by an interrupted paired-page program. The
	// stored fingerprint is the intended content; the page's severity
	// controls how many raw bit errors reads will see.
	PageCorrupt
	// PageUnreliable marks a page caught in a partially erased block.
	PageUnreliable
)

// String implements fmt.Stringer.
func (s PageState) String() string {
	switch s {
	case PageErased:
		return "erased"
	case PageProgrammed:
		return "programmed"
	case PageCorrupt:
		return "corrupt"
	case PageUnreliable:
		return "unreliable"
	default:
		return fmt.Sprintf("PageState(%d)", uint8(s))
	}
}

// page is one physical page: 16 bytes, because a run opens hundreds of
// blocks of hundreds of pages each. The extra raw bit error rate of a
// corrupt or unreliable page, zero on every other page, lives in the
// chip's severity side table.
type page struct {
	state PageState
	// uncorrectable marks a page programmed from data that ECC could not
	// correct: its reads fail whatever their bit errors.
	uncorrectable bool
	fp            content.Fingerprint
}

type block struct {
	pages      []page
	eraseCount int
	readCount  int64 // reads since the last erase (read disturb)
	nextPage   int
	needsErase bool // set when an erase was interrupted
}

// Config assembles the chip model parameters.
type Config struct {
	Geometry Geometry
	Cell     CellKind
	Timing   Timing
	ECC      ECCConfig

	// BaseBER is the raw bit error rate of a freshly written page on a
	// young block.
	BaseBER float64
	// WearBERMult scales BaseBER linearly with consumed endurance: at
	// EnduranceCycles erases the effective BER is BaseBER*(1+WearBERMult).
	WearBERMult float64
	// EnduranceCycles is the rated program/erase endurance per block.
	EnduranceCycles int
	// ReadDisturbBER is the extra raw bit error rate accumulated per
	// 100,000 reads of a block since its last erase (read disturb).
	ReadDisturbBER float64
}

// DefaultBER returns a plausible raw bit error rate for the technology.
func DefaultBER(c CellKind) float64 {
	switch c {
	case SLC:
		return 1e-8
	case TLC:
		return 3e-5
	case QLC:
		return 8e-5
	default:
		return 1e-5
	}
}

// DefaultEndurance returns a rated P/E cycle count for the technology.
func DefaultEndurance(c CellKind) int {
	switch c {
	case SLC:
		return 100000
	case TLC:
		return 1500
	case QLC:
		return 500
	default:
		return 3000
	}
}

// Validate checks the chip configuration.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if !c.Cell.Valid() {
		return fmt.Errorf("flash: invalid cell kind %d", int(c.Cell))
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if err := c.ECC.Validate(); err != nil {
		return err
	}
	if c.BaseBER < 0 || c.BaseBER > 0.5 {
		return fmt.Errorf("flash: BaseBER out of range: %g", c.BaseBER)
	}
	if c.EnduranceCycles <= 0 {
		return fmt.Errorf("flash: EnduranceCycles must be positive, got %d", c.EnduranceCycles)
	}
	return nil
}

// Stats counts chip-level operations and media events.
type Stats struct {
	Programs           int64
	PartialPrograms    int64
	PairCorruptions    int64
	Reads              int64
	CorrectedReads     int64
	UncorrectableReads int64
	Erases             int64
	PartialErases      int64
}

// Chip is the NAND array state machine.
type Chip struct {
	cfg    Config
	r      *sim.RNG
	blocks []*block // up to the highest block touched; see blk and touched
	// severity holds the extra raw BER of each PageCorrupt or
	// PageUnreliable page that has one, keyed by PPN. It is nil until
	// the first corruption, and an erase drops the block's entries.
	severity map[addr.PPN]float64
	stats    Stats
}

// New builds a chip. Blocks are allocated on first touch so a chip costs
// memory only for the blocks a run programs or erases, whatever its
// geometry.
func New(cfg Config, r *sim.RNG) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if r == nil {
		return nil, errors.New("flash: nil RNG")
	}
	return &Chip{cfg: cfg, r: r}, nil
}

// Config returns the chip configuration.
func (c *Chip) Config() Config { return c.cfg }

// Geometry returns the array geometry.
func (c *Chip) Geometry() Geometry { return c.cfg.Geometry }

// Timing returns the nominal operation latencies.
func (c *Chip) Timing() Timing { return c.cfg.Timing }

// Stats returns a snapshot of the operation counters.
func (c *Chip) Stats() Stats { return c.stats }

// blk returns block i, which must lie in the geometry, opening it on
// first touch. The fast path, a block already open, stays inlinable.
func (c *Chip) blk(i int) *block {
	if uint(i) < uint(len(c.blocks)) && c.blocks[i] != nil {
		return c.blocks[i]
	}
	return c.open(i)
}

// open allocates block i, growing blocks to reach it.
func (c *Chip) open(i int) *block {
	if n := i + 1 - len(c.blocks); n > 0 {
		c.blocks = append(c.blocks, make([]*block, n)...)
	}
	b := &block{pages: make([]page, c.cfg.Geometry.PagesPerBlock)}
	c.blocks[i] = b
	return b
}

// touched returns block i, nil if it was never programmed or erased: an
// index past the end of blocks, or a nil entry, is a block in its factory
// state, erased with zero counts.
func (c *Chip) touched(i int) *block {
	if uint(i) < uint(len(c.blocks)) {
		return c.blocks[i]
	}
	return nil
}

// EraseCount returns the erase cycles consumed by a block.
func (c *Chip) EraseCount(blockIdx int) int {
	if b := c.touched(blockIdx); b != nil {
		return b.eraseCount
	}
	return 0
}

// ReadCount returns the reads a block has absorbed since its last erase.
func (c *Chip) ReadCount(blockIdx int) int64 {
	if b := c.touched(blockIdx); b != nil {
		return b.readCount
	}
	return 0
}

// NextPage returns the program pointer of a block (the only page index a
// Program may target next).
func (c *Chip) NextPage(blockIdx int) int {
	if b := c.touched(blockIdx); b != nil {
		return b.nextPage
	}
	return 0
}

// State returns the state of a physical page.
func (c *Chip) State(p addr.PPN) PageState {
	if !c.cfg.Geometry.Contains(p) {
		return PageErased
	}
	b := c.touched(c.cfg.Geometry.BlockOf(p))
	if b == nil {
		return PageErased
	}
	return b.pages[c.cfg.Geometry.PageOf(p)].state
}

// FullyProgrammed reports whether the page completed its program cleanly,
// which is what makes its out-of-band metadata trustworthy during the
// FTL's crash-recovery scan.
func (c *Chip) FullyProgrammed(p addr.PPN) bool {
	return c.State(p) == PageProgrammed
}

// Program writes fp into page p. NAND constraints are enforced: the page
// must be the block's next sequential page and the block must be erased
// (and not pending a re-erase after an interrupted erase).
func (c *Chip) Program(p addr.PPN, fp content.Fingerprint) error {
	g := c.cfg.Geometry
	if !g.Contains(p) {
		return ErrBadAddress
	}
	b := c.blk(g.BlockOf(p))
	pi := g.PageOf(p)
	if b.needsErase {
		return ErrNeedsErase
	}
	if pi != b.nextPage {
		return ErrProgramOrder
	}
	pg := &b.pages[pi]
	if pg.state != PageErased {
		return ErrNotErased
	}
	pg.state = PageProgrammed
	pg.fp = fp
	b.nextPage++
	c.stats.Programs++
	return nil
}

// ProgramUncorrectable programs fp into page p as Program does and marks
// the page's data uncorrectable: the controller is copying a page whose
// read ECC could not correct, and the copy must not read back as good
// data. Reads of the page fail; its program completed, so its out-of-band
// metadata stays trustworthy.
func (c *Chip) ProgramUncorrectable(p addr.PPN, fp content.Fingerprint) error {
	if err := c.Program(p, fp); err != nil {
		return err
	}
	g := c.cfg.Geometry
	c.blocks[g.BlockOf(p)].pages[g.PageOf(p)].uncorrectable = true
	return nil
}

// addSeverity raises page p's extra raw BER by ber, opening the side
// table on the first corruption.
func (c *Chip) addSeverity(p addr.PPN, ber float64) {
	if c.severity == nil {
		c.severity = make(map[addr.PPN]float64)
	}
	c.severity[p] += ber
}

// ProgramPartial records a program interrupted after fraction frac of its
// ISPP steps (0 <= frac < 1). The page is consumed: it holds the intended
// fingerprint but with a severity-scaled raw error rate, and paired lower
// pages written earlier may be corrupted, which is how a power cut damages
// previously completed data.
func (c *Chip) ProgramPartial(p addr.PPN, fp content.Fingerprint, frac float64) error {
	g := c.cfg.Geometry
	if !g.Contains(p) {
		return ErrBadAddress
	}
	if frac < 0 {
		frac = 0
	}
	if frac >= 1 {
		frac = 0.999
	}
	b := c.blk(g.BlockOf(p))
	pi := g.PageOf(p)
	if b.needsErase {
		return ErrNeedsErase
	}
	if pi != b.nextPage {
		return ErrProgramOrder
	}
	pg := &b.pages[pi]
	if pg.state != PageErased {
		return ErrNotErased
	}
	// Quantise to ISPP steps: interruption within the final step leaves
	// distributions close to target and the page often survives via ECC.
	steps := float64(c.cfg.Cell.ProgramSteps())
	done := float64(int(frac * steps))
	remaining := 1 - done/steps
	pg.state = PageCorrupt
	pg.fp = fp
	c.addSeverity(p, interruptedBER(remaining))
	b.nextPage++
	c.stats.PartialPrograms++

	// Disturb paired lower pages written earlier in the block. The
	// probability peaks for cuts in the middle of the program, when the
	// shared cells are furthest from any stable state.
	pk := c.cfg.Cell.PairCorruptProb() * 4 * frac * (1 - frac)
	for _, lower := range c.cfg.Cell.PairedLowerPages(pi) {
		lp := &b.pages[lower]
		if lp.state != PageProgrammed && lp.state != PageCorrupt {
			continue
		}
		if !c.r.Prob(pk) {
			continue
		}
		lp.state = PageCorrupt
		c.addSeverity(g.PPNOf(g.BlockOf(p), lower), interruptedBER(0.5))
		c.stats.PairCorruptions++
	}
	return nil
}

// interruptedBER maps the remaining (un-executed) fraction of a program to
// an additional raw bit error rate. Near-complete programs (remaining->0)
// add little; barely-started ones read as garbage.
func interruptedBER(remaining float64) float64 {
	return 0.25 * remaining * remaining
}

// Erase resets all pages of a block and consumes one endurance cycle.
func (c *Chip) Erase(blockIdx int) error {
	if blockIdx < 0 || blockIdx >= c.cfg.Geometry.Blocks() {
		return ErrBadAddress
	}
	b := c.blk(blockIdx)
	for i := range b.pages {
		if st := b.pages[i].state; st == PageCorrupt || st == PageUnreliable {
			delete(c.severity, c.cfg.Geometry.PPNOf(blockIdx, i))
		}
		b.pages[i] = page{}
	}
	b.nextPage = 0
	b.eraseCount++
	b.readCount = 0
	b.needsErase = false
	c.stats.Erases++
	return nil
}

// ErasePartial records an erase interrupted after fraction frac. Every
// page that still held data becomes unreliable, and the block must be
// fully erased before it can be programmed again.
func (c *Chip) ErasePartial(blockIdx int, frac float64) error {
	if blockIdx < 0 || blockIdx >= c.cfg.Geometry.Blocks() {
		return ErrBadAddress
	}
	b := c.blk(blockIdx)
	for i := range b.pages {
		pg := &b.pages[i]
		if pg.state == PageProgrammed || pg.state == PageCorrupt {
			pg.state = PageUnreliable
			c.addSeverity(c.cfg.Geometry.PPNOf(blockIdx, i), 0.3*(1-frac))
		}
	}
	b.needsErase = true
	c.stats.PartialErases++
	return nil
}

// ReadStatus classifies the outcome of a page read.
type ReadStatus uint8

// Read outcomes.
const (
	ReadClean ReadStatus = iota
	ReadCorrected
	ReadUncorrectable
)

// String implements fmt.Stringer.
func (s ReadStatus) String() string {
	switch s {
	case ReadClean:
		return "clean"
	case ReadCorrected:
		return "corrected"
	case ReadUncorrectable:
		return "uncorrectable"
	default:
		return fmt.Sprintf("ReadStatus(%d)", uint8(s))
	}
}

// ReadResult carries the outcome of a page read. FP is the content the
// controller hands upstream: the intended data when ECC succeeds, a
// deterministic corruption of it when ECC fails.
type ReadResult struct {
	FP        content.Fingerprint
	Status    ReadStatus
	BitErrors int
}

// Read samples a page read through the ECC pipeline. Erased pages return
// zero content.
func (c *Chip) Read(p addr.PPN) (ReadResult, error) {
	g := c.cfg.Geometry
	if !g.Contains(p) {
		return ReadResult{}, ErrBadAddress
	}
	c.stats.Reads++
	b := c.touched(g.BlockOf(p))
	if b == nil {
		return ReadResult{FP: content.Zero, Status: ReadClean}, nil
	}
	b.readCount++
	pg := &b.pages[g.PageOf(p)]
	if pg.state == PageErased {
		return ReadResult{FP: content.Zero, Status: ReadClean}, nil
	}
	ber := c.effectiveBER(b, p, pg.state)
	lambda := ber * 8 * addr.PageBytes
	errs := c.r.Poisson(lambda)
	limit := c.cfg.ECC.CorrectPerPage()
	switch {
	case pg.uncorrectable:
		// The page holds what an uncorrectable read returned. Its bit
		// errors are drawn as on any page but decide nothing.
		c.stats.UncorrectableReads++
		return ReadResult{FP: pg.fp, Status: ReadUncorrectable, BitErrors: errs}, nil
	case errs == 0:
		return ReadResult{FP: pg.fp, Status: ReadClean}, nil
	case errs <= limit:
		c.stats.CorrectedReads++
		return ReadResult{FP: pg.fp, Status: ReadCorrected, BitErrors: errs}, nil
	default:
		c.stats.UncorrectableReads++
		return ReadResult{
			FP:        content.Mix(pg.fp, c.r.Uint64()),
			Status:    ReadUncorrectable,
			BitErrors: errs,
		}, nil
	}
}

// effectiveBER is the raw bit error rate a read of page p in block b
// sees: wear, read disturb, and for a corrupt or unreliable page its
// severity. A programmed page has none, so only the others look it up.
func (c *Chip) effectiveBER(b *block, p addr.PPN, st PageState) float64 {
	wear := float64(b.eraseCount) / float64(c.cfg.EnduranceCycles)
	ber := c.cfg.BaseBER * (1 + c.cfg.WearBERMult*wear)
	ber += c.cfg.ReadDisturbBER * float64(b.readCount) / 1e5
	if st == PageProgrammed {
		return ber
	}
	return ber + c.severity[p]
}
