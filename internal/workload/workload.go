// Package workload generates the IO streams of the paper's experiments:
// uniform-random or sequential access over a configurable working set,
// request sizes fixed or drawn from 4 KiB-1 MiB, read/write mixes from
// fully-read to fully-write, pair sequences (RAR, RAW, WAR, WAW) that
// target the previous request's address, and open-loop arrival pacing for
// the requested-IOPS sweep.
package workload

import (
	"fmt"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/sim"
)

// Op is the request direction.
type Op int

// Operations.
const (
	OpRead Op = iota
	OpWrite
)

// String implements fmt.Stringer.
func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Pattern selects the address distribution.
type Pattern int

// Access patterns.
const (
	Random Pattern = iota
	Sequential
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	if p == Sequential {
		return "sequential"
	}
	return "random"
}

// MarshalJSON renders the pattern by name.
func (p Pattern) MarshalJSON() ([]byte, error) { return []byte(`"` + p.String() + `"`), nil }

// UnmarshalJSON parses a pattern name, so marshaled specs (run archives,
// report JSON) decode back into typed values.
func (p *Pattern) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"random"`:
		*p = Random
	case `"sequential"`:
		*p = Sequential
	default:
		return fmt.Errorf("workload: unknown pattern %s", b)
	}
	return nil
}

// SeqMode selects the paper's access-sequence experiments: pairs of
// requests where the second targets the address of the first.
type SeqMode int

// Sequence modes.
const (
	SeqNone SeqMode = iota
	RAR             // read after read
	RAW             // read after write
	WAR             // write after read
	WAW             // write after write
)

// String implements fmt.Stringer.
func (m SeqMode) String() string {
	switch m {
	case RAR:
		return "RAR"
	case RAW:
		return "RAW"
	case WAR:
		return "WAR"
	case WAW:
		return "WAW"
	default:
		return "none"
	}
}

// MarshalJSON renders the sequence mode by name.
func (m SeqMode) MarshalJSON() ([]byte, error) { return []byte(`"` + m.String() + `"`), nil }

// UnmarshalJSON parses a sequence-mode name, exactly as String spells it.
func (m *SeqMode) UnmarshalJSON(b []byte) error {
	for mode := SeqNone; mode <= WAW; mode++ {
		if string(b) == `"`+mode.String()+`"` {
			*m = mode
			return nil
		}
	}
	return fmt.Errorf("workload: unknown sequence mode %s", b)
}

// ops returns the pair (first, second) for a sequence mode. The name
// reads "X after Y": Y is issued first, then X on the same address.
func (m SeqMode) ops() (first, second Op) {
	switch m {
	case RAR:
		return OpRead, OpRead
	case RAW:
		return OpWrite, OpRead
	case WAR:
		return OpRead, OpWrite
	case WAW:
		return OpWrite, OpWrite
	default:
		return OpWrite, OpWrite
	}
}

// Spec describes a workload.
type Spec struct {
	Name string `json:"name"`
	// WSSBytes is the working set size; addresses are drawn from it.
	WSSBytes int64 `json:"wss_bytes"`
	// MinSize/MaxSize bound the uniform request size distribution in
	// bytes; both are rounded to 4 KiB pages. When FixedSize is non-zero
	// it overrides the range.
	MinSize   int `json:"min_size,omitempty"`
	MaxSize   int `json:"max_size,omitempty"`
	FixedSize int `json:"fixed_size,omitempty"`
	// ReadPct is the percentage of read requests (0 = fully write).
	ReadPct int `json:"read_pct"`
	// Pattern is the address pattern for SeqNone workloads.
	Pattern Pattern `json:"pattern"`
	// Sequence switches to paired accesses (RAR/RAW/WAR/WAW).
	Sequence SeqMode `json:"sequence"`
	// IOPS > 0 paces arrivals at the requested rate (open loop);
	// 0 runs closed loop (the runner controls concurrency/think time).
	IOPS float64 `json:"iops,omitempty"`
}

// maxIOPS is the highest open-loop rate whose mean arrival gap, 1/IOPS,
// the 1 ns simulation clock can represent. Faster rates draw gaps that
// truncate to 0, so the clock would stop.
const maxIOPS = 1e9

// Validate checks the specification.
func (s Spec) Validate() error {
	if s.WSSBytes < addr.PageBytes {
		return fmt.Errorf("workload: WSS %d smaller than one page", s.WSSBytes)
	}
	if s.FixedSize == 0 {
		if s.MinSize <= 0 || s.MaxSize < s.MinSize {
			return fmt.Errorf("workload: bad size range [%d,%d]", s.MinSize, s.MaxSize)
		}
	} else if s.FixedSize <= 0 {
		return fmt.Errorf("workload: bad fixed size %d", s.FixedSize)
	}
	if s.ReadPct < 0 || s.ReadPct > 100 {
		return fmt.Errorf("workload: ReadPct %d out of range", s.ReadPct)
	}
	if s.IOPS < 0 {
		return fmt.Errorf("workload: negative IOPS")
	}
	if !(s.IOPS <= maxIOPS) {
		return fmt.Errorf("workload: IOPS %g puts the mean arrival gap under the 1 ns clock tick (max %g)", s.IOPS, maxIOPS)
	}
	maxPages := addr.PagesFor(int64(s.maxBytes()))
	if int64(maxPages) > s.WSSBytes>>addr.PageShift {
		return fmt.Errorf("workload: max request (%d pages) exceeds WSS", maxPages)
	}
	return nil
}

func (s Spec) maxBytes() int {
	if s.FixedSize > 0 {
		return s.FixedSize
	}
	return s.MaxSize
}

// String implements fmt.Stringer.
func (s Spec) String() string {
	size := fmt.Sprintf("%d-%dKB", s.MinSize>>10, s.MaxSize>>10)
	if s.FixedSize > 0 {
		size = fmt.Sprintf("%dKB", s.FixedSize>>10)
	}
	seq := ""
	if s.Sequence != SeqNone {
		seq = " seq=" + s.Sequence.String()
	}
	return fmt.Sprintf("%s wss=%dGB size=%s read%%=%d %s%s",
		s.Name, s.WSSBytes>>30, size, s.ReadPct, s.Pattern, seq)
}

// DefaultSpec is the paper's base workload: uniform random writes with
// sizes between 4 KiB and 1 MiB over a 16 GB working set.
func DefaultSpec() Spec {
	return Spec{
		Name:     "random-write",
		WSSBytes: 16 << 30,
		MinSize:  4 << 10,
		MaxSize:  1 << 20,
		ReadPct:  0,
		Pattern:  Random,
	}
}

// Item is one generated request.
type Item struct {
	Op    Op
	LPN   addr.LPN
	Pages int
	Data  content.Data // write payload
}

// Generator produces the request stream for a spec.
type Generator struct {
	spec     Spec
	r        *sim.RNG
	wssPages int64
	seqCur   addr.LPN // sequential cursor
	// pair state for sequence modes
	pairPending bool
	pairLPN     addr.LPN
	pairPages   int
	issued      int64
}

// NewGenerator builds a generator; the spec must validate.
func NewGenerator(spec Spec, r *sim.RNG) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Generator{spec: spec, r: r, wssPages: spec.WSSBytes >> addr.PageShift}, nil
}

// Spec returns the workload specification.
func (g *Generator) Spec() Spec { return g.spec }

// Issued returns the number of items generated.
func (g *Generator) Issued() int64 { return g.issued }

func (g *Generator) pages() int {
	if g.spec.FixedSize > 0 {
		return addr.PagesFor(int64(g.spec.FixedSize))
	}
	minP := addr.PagesFor(int64(g.spec.MinSize))
	maxP := addr.PagesFor(int64(g.spec.MaxSize))
	if minP < 1 {
		minP = 1
	}
	return g.r.IntRange(minP, maxP)
}

func (g *Generator) randomLPN(pages int) addr.LPN {
	span := g.wssPages - int64(pages)
	if span <= 0 {
		return 0
	}
	return addr.LPN(g.r.Int63n(span + 1))
}

// Next produces the next request.
func (g *Generator) Next() Item {
	g.issued++
	if g.spec.Sequence != SeqNone {
		return g.nextPair()
	}
	pages := g.pages()
	var lpn addr.LPN
	if g.spec.Pattern == Sequential {
		if int64(g.seqCur)+int64(pages) > g.wssPages {
			g.seqCur = 0
		}
		lpn = g.seqCur
		g.seqCur += addr.LPN(pages)
	} else {
		lpn = g.randomLPN(pages)
	}
	op := OpWrite
	if g.r.Intn(100) < g.spec.ReadPct {
		op = OpRead
	}
	it := Item{Op: op, LPN: lpn, Pages: pages}
	if op == OpWrite {
		it.Data = content.Random(g.r, pages)
	}
	return it
}

// nextPair generates the X-after-Y pair streams: the first request of the
// pair goes to a fresh random address, the second request repeats that
// address ("each request is submitted on the address of the previously
// completed request").
func (g *Generator) nextPair() Item {
	first, second := g.spec.Sequence.ops()
	if !g.pairPending {
		pages := g.pages()
		g.pairLPN = g.randomLPN(pages)
		g.pairPages = pages
		g.pairPending = true
		it := Item{Op: first, LPN: g.pairLPN, Pages: pages}
		if first == OpWrite {
			it.Data = content.Random(g.r, pages)
		}
		return it
	}
	g.pairPending = false
	it := Item{Op: second, LPN: g.pairLPN, Pages: g.pairPages}
	if second == OpWrite {
		it.Data = content.Random(g.r, g.pairPages)
	}
	return it
}

// NextArrival returns the inter-arrival gap for open-loop pacing
// (exponential with mean 1/IOPS), or 0 for closed-loop specs.
func (g *Generator) NextArrival() sim.Duration {
	if g.spec.IOPS <= 0 {
		return 0
	}
	return sim.Seconds(g.r.ExpMean(1 / g.spec.IOPS))
}
