package flash

import (
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/sim"
)

// benchChip builds a fresh MLC chip of 1024 blocks of 256 pages.
func benchChip(b *testing.B) *Chip {
	cfg := Config{
		Geometry:        Geometry{Dies: 4, PlanesPerDie: 2, BlocksPerPlane: 128, PagesPerBlock: 256},
		Cell:            MLC,
		Timing:          TimingFor(MLC),
		ECC:             ECCConfig{Scheme: "BCH", CorrectPerKB: 40},
		BaseBER:         DefaultBER(MLC),
		WearBERMult:     4,
		EnduranceCycles: DefaultEndurance(MLC),
	}
	c, err := New(cfg, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkChipRead reads programmed pages of a fresh MLC chip through the
// ECC model, whose raw bit error rate gives each read a Poisson draw with
// λ ≈ 0.33, the same λ for every page.
func BenchmarkChipRead(b *testing.B) {
	c := benchChip(b)
	const programmed = 1 << 16
	for i := 0; i < programmed; i++ {
		if err := c.Program(addr.PPN(i), content.Fingerprint(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Read(addr.PPN(i % programmed)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChipProgram programs the pages of an MLC chip in order. A
// block's first program opens it, once per block lifetime; each time the
// chip is full, every block is erased with the timer stopped.
func BenchmarkChipProgram(b *testing.B) {
	c := benchChip(b)
	pages := c.Geometry().Pages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := int64(i) % pages
		if p == 0 && i > 0 {
			b.StopTimer()
			for blk := 0; blk < c.Geometry().Blocks(); blk++ {
				if err := c.Erase(blk); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		if err := c.Program(addr.PPN(p), content.Fingerprint(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}
