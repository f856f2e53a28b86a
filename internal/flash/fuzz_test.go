package flash

import (
	"testing"
	"unsafe"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/sim"
)

// refChip is a second implementation of the chip's media rules that keeps
// each page's severity inline, as the chip did before severity moved to
// its side table. FuzzChip runs it in lockstep with Chip.
type refChip struct {
	cfg    Config
	r      *sim.RNG
	blocks []refBlock
	stats  Stats
}

type refPage struct {
	state         PageState
	uncorrectable bool
	fp            content.Fingerprint
	severity      float64
}

type refBlock struct {
	pages      []refPage
	eraseCount int
	readCount  int64
	nextPage   int
	needsErase bool
}

func newRefChip(cfg Config, r *sim.RNG) *refChip {
	c := &refChip{cfg: cfg, r: r, blocks: make([]refBlock, cfg.Geometry.Blocks())}
	for i := range c.blocks {
		c.blocks[i].pages = make([]refPage, cfg.Geometry.PagesPerBlock)
	}
	return c
}

// slot returns p's block and page after the checks every program makes.
func (c *refChip) slot(p addr.PPN) (*refBlock, int, error) {
	g := c.cfg.Geometry
	if !g.Contains(p) {
		return nil, 0, ErrBadAddress
	}
	b, pi := &c.blocks[g.BlockOf(p)], g.PageOf(p)
	switch {
	case b.needsErase:
		return nil, 0, ErrNeedsErase
	case pi != b.nextPage:
		return nil, 0, ErrProgramOrder
	case b.pages[pi].state != PageErased:
		return nil, 0, ErrNotErased
	}
	return b, pi, nil
}

func (c *refChip) Program(p addr.PPN, fp content.Fingerprint, uncorrectable bool) error {
	b, pi, err := c.slot(p)
	if err != nil {
		return err
	}
	b.pages[pi] = refPage{state: PageProgrammed, fp: fp, uncorrectable: uncorrectable}
	b.nextPage++
	c.stats.Programs++
	return nil
}

func (c *refChip) ProgramPartial(p addr.PPN, fp content.Fingerprint, frac float64) error {
	frac = min(max(frac, 0), 0.999)
	b, pi, err := c.slot(p)
	if err != nil {
		return err
	}
	steps := float64(c.cfg.Cell.ProgramSteps())
	remaining := 1 - float64(int(frac*steps))/steps
	b.pages[pi] = refPage{state: PageCorrupt, fp: fp, severity: 0.25 * remaining * remaining}
	b.nextPage++
	c.stats.PartialPrograms++
	pk := c.cfg.Cell.PairCorruptProb() * 4 * frac * (1 - frac)
	for _, lower := range c.cfg.Cell.PairedLowerPages(pi) {
		lp := &b.pages[lower]
		if lp.state != PageProgrammed && lp.state != PageCorrupt || !c.r.Prob(pk) {
			continue
		}
		lp.state = PageCorrupt
		lp.severity += 0.25 * 0.5 * 0.5
		c.stats.PairCorruptions++
	}
	return nil
}

func (c *refChip) Erase(blk int) error {
	if blk < 0 || blk >= len(c.blocks) {
		return ErrBadAddress
	}
	b := &c.blocks[blk]
	clear(b.pages)
	b.nextPage, b.readCount, b.needsErase = 0, 0, false
	b.eraseCount++
	c.stats.Erases++
	return nil
}

func (c *refChip) ErasePartial(blk int, frac float64) error {
	if blk < 0 || blk >= len(c.blocks) {
		return ErrBadAddress
	}
	b := &c.blocks[blk]
	for i := range b.pages {
		if pg := &b.pages[i]; pg.state == PageProgrammed || pg.state == PageCorrupt {
			pg.state = PageUnreliable
			pg.severity += 0.3 * (1 - frac)
		}
	}
	b.needsErase = true
	c.stats.PartialErases++
	return nil
}

func (c *refChip) Read(p addr.PPN) (ReadResult, error) {
	g := c.cfg.Geometry
	if !g.Contains(p) {
		return ReadResult{}, ErrBadAddress
	}
	c.stats.Reads++
	b := &c.blocks[g.BlockOf(p)]
	b.readCount++
	pg := &b.pages[g.PageOf(p)]
	if pg.state == PageErased {
		return ReadResult{FP: content.Zero, Status: ReadClean}, nil
	}
	wear := float64(b.eraseCount) / float64(c.cfg.EnduranceCycles)
	ber := c.cfg.BaseBER * (1 + c.cfg.WearBERMult*wear)
	ber += c.cfg.ReadDisturbBER * float64(b.readCount) / 1e5
	errs := c.r.Poisson((ber + pg.severity) * 8 * addr.PageBytes)
	switch {
	case pg.uncorrectable:
		c.stats.UncorrectableReads++
		return ReadResult{FP: pg.fp, Status: ReadUncorrectable, BitErrors: errs}, nil
	case errs == 0:
		return ReadResult{FP: pg.fp, Status: ReadClean}, nil
	case errs <= c.cfg.ECC.CorrectPerPage():
		c.stats.CorrectedReads++
		return ReadResult{FP: pg.fp, Status: ReadCorrected, BitErrors: errs}, nil
	default:
		c.stats.UncorrectableReads++
		return ReadResult{FP: content.Mix(pg.fp, c.r.Uint64()), Status: ReadUncorrectable, BitErrors: errs}, nil
	}
}

// chipSeeds are FuzzChip's seed scripts: a leading byte that picks the
// cell kind (0 SLC, 1 MLC, 2 TLC, 3 QLC), then three bytes per operation:
// the kind (0 Program, 1 ProgramPartial, 2 ProgramUncorrectable, 3 Erase,
// 4 ErasePartial, 5 Read), the target (a block, whose next page programs
// use, or 0x80|ppn for one page) and a fraction in 256ths.
var chipSeeds = [][]byte{
	{},
	// MLC: program four pages, cut three programs at different points,
	// read every page, erase and reuse the block.
	{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 128,
		5, 0x80, 0, 5, 0x81, 0, 5, 0x82, 0, 5, 0x83, 0, 5, 0x84, 0,
		1, 0, 230, 1, 0, 25, 5, 0x85, 0, 5, 0x86, 0, 5, 0x82, 0,
		3, 0, 0, 5, 0x84, 0, 0, 0, 0, 5, 0x80, 0},
	// TLC: partial programs over paired pages, reads, an interrupted
	// erase, the program it refuses, and the re-erase it demands.
	{2, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0,
		1, 1, 100, 1, 1, 128, 1, 1, 200,
		5, 0x8c, 0, 5, 0x8d, 0, 5, 0x8e, 0, 5, 0x92, 0, 5, 0x93, 0, 5, 0x94, 0,
		4, 1, 64, 5, 0x8c, 0, 5, 0x8d, 0, 5, 0x94, 0, 0, 1, 0,
		3, 1, 0, 0, 1, 0, 5, 0x8c, 0},
	// QLC: a page programmed uncorrectable beside a clean one, a cut
	// program after them, an interrupted erase and a full one.
	{3, 2, 2, 0, 0, 2, 0, 5, 0x98, 0, 5, 0x99, 0, 1, 2, 90,
		5, 0x98, 0, 5, 0x98, 0, 5, 0x9a, 0, 4, 2, 10,
		5, 0x98, 0, 5, 0x99, 0, 5, 0x9a, 0, 3, 2, 0, 5, 0x98, 0},
	// SLC: out-of-order and out-of-range programs, reads and erases.
	{0, 0, 0x85, 0, 0, 0, 0, 0, 0x80 | 50, 0, 0, 4, 0, 3, 4, 0, 4, 4, 9,
		5, 0x80 | 55, 0, 1, 0, 128, 5, 0x81, 0, 2, 0x80, 0, 5, 0x80, 0},
}

// FuzzChip runs random scripts of Program, ProgramPartial,
// ProgramUncorrectable, Erase, ErasePartial and Read on a small chip and
// on refChip, each with its own RNG of the same seed. Every call must
// return the same error and ReadResult, every page the same state, the
// stats must match, and both RNGs must have consumed the same draws.
func FuzzChip(f *testing.F) {
	for _, s := range chipSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		cfg := Config{
			Geometry:        Geometry{Dies: 1, PlanesPerDie: 2, BlocksPerPlane: 2, PagesPerBlock: 12},
			Cell:            CellKind(1 + int(script[0])%4),
			ECC:             ECCConfig{Scheme: "BCH", CorrectPerKB: 40},
			BaseBER:         2e-5,
			WearBERMult:     4,
			EnduranceCycles: 50,
			ReadDisturbBER:  1e-4,
		}
		cfg.Timing = TimingFor(cfg.Cell)
		rc, rr := sim.NewRNG(9), sim.NewRNG(9)
		c, err := New(cfg, rc)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefChip(cfg, rr)
		g := cfg.Geometry
		for i := 1; i+2 < len(script); i += 3 {
			kind, tgt, frac := script[i]%6, int(script[i+1]), float64(script[i+2])/256
			blk := tgt % (g.Blocks() + 1) // one past the end is out of range
			// Mostly the block's next page, so programs succeed; the
			// top bit picks any page, in range or one block past it.
			p := g.PPNOf(blk, c.NextPage(blk%g.Blocks()))
			if tgt&0x80 != 0 {
				p = addr.PPN(tgt&0x7f) % addr.PPN(g.Pages()+int64(g.PagesPerBlock))
			}
			fp := content.Fingerprint(i)
			var got, want error
			switch kind {
			case 0:
				got, want = c.Program(p, fp), ref.Program(p, fp, false)
			case 1:
				got, want = c.ProgramPartial(p, fp, frac), ref.ProgramPartial(p, fp, frac)
			case 2:
				got, want = c.ProgramUncorrectable(p, fp), ref.Program(p, fp, true)
			case 3:
				got, want = c.Erase(blk), ref.Erase(blk)
			case 4:
				got, want = c.ErasePartial(blk, frac), ref.ErasePartial(blk, frac)
			case 5:
				gr, gerr := c.Read(p)
				wr, werr := ref.Read(p)
				if gr != wr {
					t.Fatalf("op %d: Read(%d) = %+v, reference %+v", i/3, p, gr, wr)
				}
				got, want = gerr, werr
			}
			if got != want {
				t.Fatalf("op %d (kind %d, ppn %d, block %d): error %v, reference %v", i/3, kind, p, blk, got, want)
			}
			if c.Stats() != ref.stats {
				t.Fatalf("op %d: stats %+v, reference %+v", i/3, c.Stats(), ref.stats)
			}
			if a, b := rc.Uint64(), rr.Uint64(); a != b {
				t.Fatalf("op %d (kind %d): the RNGs diverged", i/3, kind)
			}
		}
		for q := addr.PPN(0); int64(q) < g.Pages(); q++ {
			if got, want := c.State(q), ref.blocks[g.BlockOf(q)].pages[g.PageOf(q)].state; got != want {
				t.Fatalf("page %d: state %v, reference %v", q, got, want)
			}
		}
		for q, sev := range c.severity {
			if st := c.State(q); st != PageCorrupt && st != PageUnreliable {
				t.Fatalf("page %d is %v but keeps severity %g in the side table", q, st, sev)
			}
		}
	})
}

// TestPageIs16Bytes pins the page record's size: a run opens hundreds of
// blocks of hundreds of pages.
func TestPageIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(page{}); n != 16 {
		t.Fatalf("page is %d bytes, want 16", n)
	}
}
