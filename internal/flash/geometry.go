// Package flash models a raw NAND flash array at the level of detail the
// paper's failure modes require: pages programmed by iterative ISPP pulses
// that a power cut can interrupt mid-way, multi-level cells whose upper
// page program can corrupt a previously written paired lower page, erase
// operations long enough to be interrupted, per-page ECC of configurable
// strength (BCH/LDPC), and wear-dependent raw bit error rates.
//
// The chip mutates state synchronously; the SSD controller (internal/ssd)
// owns all timing and calls Program/ProgramPartial/Erase/ErasePartial at
// the simulated instants the operations complete or are interrupted.
package flash

import (
	"fmt"

	"powerfail/internal/addr"
)

// Geometry describes the physical array layout. PPNs are linear:
// ppn = block*PagesPerBlock + page, with blocks striped across dies and
// planes by the FTL's allocation policy.
type Geometry struct {
	Dies           int
	PlanesPerDie   int
	BlocksPerPlane int
	PagesPerBlock  int
}

// Validate checks that every dimension is positive.
func (g Geometry) Validate() error {
	if g.Dies <= 0 || g.PlanesPerDie <= 0 || g.BlocksPerPlane <= 0 || g.PagesPerBlock <= 0 {
		return fmt.Errorf("flash: geometry dimensions must be positive: %+v", g)
	}
	return nil
}

// Blocks returns the total number of erase blocks.
func (g Geometry) Blocks() int { return g.Dies * g.PlanesPerDie * g.BlocksPerPlane }

// Pages returns the total number of physical pages.
func (g Geometry) Pages() int64 { return int64(g.Blocks()) * int64(g.PagesPerBlock) }

// CapacityBytes returns the raw array capacity.
func (g Geometry) CapacityBytes() int64 { return g.Pages() * addr.PageBytes }

// BlockOf returns the erase block containing ppn.
func (g Geometry) BlockOf(p addr.PPN) int { return int(int64(p) / int64(g.PagesPerBlock)) }

// PageOf returns the page index of ppn within its block.
func (g Geometry) PageOf(p addr.PPN) int { return int(int64(p) % int64(g.PagesPerBlock)) }

// PPNOf composes a physical page number from block and in-block page index.
func (g Geometry) PPNOf(block, page int) addr.PPN {
	return addr.PPN(int64(block)*int64(g.PagesPerBlock) + int64(page))
}

// Contains reports whether ppn addresses a real page.
func (g Geometry) Contains(p addr.PPN) bool {
	return p >= 0 && int64(p) < g.Pages()
}

// String implements fmt.Stringer.
func (g Geometry) String() string {
	return fmt.Sprintf("%dd x %dpl x %dblk x %dpg (%.1f GiB)",
		g.Dies, g.PlanesPerDie, g.BlocksPerPlane, g.PagesPerBlock,
		float64(g.CapacityBytes())/(1<<30))
}

// GeometryForCapacity derives a geometry with the requested usable capacity
// plus overprovisioning, given dies and pages per block. The block count is
// rounded up so the array always holds at least the requested bytes.
func GeometryForCapacity(bytes int64, overprovisionPct int, dies, planes, pagesPerBlock int) Geometry {
	if dies <= 0 {
		dies = 8
	}
	if planes <= 0 {
		planes = 2
	}
	if pagesPerBlock <= 0 {
		pagesPerBlock = 256
	}
	total := bytes + bytes*int64(overprovisionPct)/100
	blockBytes := int64(pagesPerBlock) * addr.PageBytes
	blocks := (total + blockBytes - 1) / blockBytes
	perPlane := (blocks + int64(dies*planes) - 1) / int64(dies*planes)
	if perPlane < 4 {
		perPlane = 4
	}
	return Geometry{
		Dies:           dies,
		PlanesPerDie:   planes,
		BlocksPerPlane: int(perPlane),
		PagesPerBlock:  pagesPerBlock,
	}
}
