package array

import (
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/blockdev/blockdevtest"
	"powerfail/internal/content"
	"powerfail/internal/power"
	"powerfail/internal/racedet"
	"powerfail/internal/sim"
)

// chunksOf is the reference chunk walk: it splits [lpn, lpn+pages) into
// per-member chunk ranges for the striped levels, building the slice the
// array once walked, with RAID-0's own round-robin formula. The array
// itself walks with chunkAt/chunkCount, RAID-0 as the m+0 code.
func (a *Array) chunksOf(lpn addr.LPN, pages int) []chunkRange {
	sp := int64(a.cfg.StripePages)
	n := int64(len(a.members))
	var out []chunkRange
	for off := 0; off < pages; {
		cur := int64(lpn) + int64(off)
		chunk := cur / sp
		in := cur % sp
		run := int(sp - in)
		if rem := pages - off; run > rem {
			run = rem
		}
		cr := chunkRange{off: off, n: run}
		switch a.cfg.Level {
		case RAID5, RAID6, RS:
			dataPer := n - int64(a.cfg.Parity)
			stripe := chunk / dataPer
			idx := int(chunk % dataPer)
			parity := int(stripe % n)
			cr.member = a.dataMember(parity, idx)
			cr.parity = parity
			cr.didx = idx
			cr.stripe = stripe
			cr.mlpn = addr.LPN(stripe*sp + in)
		default: // RAID0
			cr.member = int(chunk % n)
			cr.mlpn = addr.LPN((chunk/n)*sp + in)
		}
		out = append(out, cr)
		off += run
	}
	return out
}

// refAttribute is the map-based data-member walk Attribute did before it
// collected members in a bitmask: the member holding each chunk, once.
func (a *Array) refAttribute(lpn addr.LPN, pages int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, cr := range a.chunksOf(lpn, pages) {
		if !seen[cr.member] {
			seen[cr.member] = true
			out = append(out, cr.member)
		}
	}
	return out
}

// figureGeometries are the m+k codes the erasure and array figures use.
func figureGeometries() []Config {
	return []Config{
		raidConfig(RAID5, 5), // 4+1
		raidConfig(RAID6, 5), // 3+2
		raidConfig(RAID6, 6), // 4+2
		rsConfig(11, 3),      // 8+3
		rsConfig(10, 4),      // 6+4
	}
}

// requestShapes yields (lpn, pages) pairs that start at, inside and just
// before chunk and stripe boundaries and span up to three stripes.
func requestShapes(a *Array, visit func(lpn addr.LPN, pages int)) {
	sp := a.cfg.StripePages
	stripe := sp * (len(a.members) - a.parityCount())
	starts := []int{0, 1, sp - 1, sp, sp + 3, stripe - 1, stripe, 2*stripe + sp/2, 7 * stripe}
	lens := []int{0, 1, 2, sp - 1, sp, sp + 1, stripe - 1, stripe, stripe + 1, 3*stripe - 2}
	for _, s := range starts {
		for _, n := range lens {
			visit(addr.LPN(s), n)
		}
	}
}

func TestChunkWalkMatchesReference(t *testing.T) {
	cfgs := append(figureGeometries(), raidConfig(RAID0, 3), raidConfig(RAID5, 3))
	for _, cfg := range cfgs {
		a, err := New(sim.New(), sim.NewRNG(1), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		requestShapes(a, func(lpn addr.LPN, pages int) {
			want := a.chunksOf(lpn, pages)
			if got := a.chunkCount(lpn, pages); got != len(want) {
				t.Fatalf("%s: chunkCount(%d, %d) = %d, want %d", a.Name(), lpn, pages, got, len(want))
			}
			i := 0
			for off := 0; off < pages; i++ {
				cr := a.chunkAt(lpn, off, pages)
				got := cr
				if a.cfg.Level == RAID0 {
					// The reference fills only RAID-0's placement; the m+0
					// walk also names the stripe, its rotation and the shard.
					got = chunkRange{member: cr.member, mlpn: cr.mlpn, off: cr.off, n: cr.n}
				}
				if got != want[i] {
					t.Fatalf("%s: chunkAt(%d, %d, %d) = %+v, want %+v", a.Name(), lpn, off, pages, cr, want[i])
				}
				off += cr.n
			}
		})
	}
}

// TestAttributeMatchesReference: the bitmask walk returns the members of
// the map-based walk in the same first-seen order on every figure
// geometry and on RAID-0.
func TestAttributeMatchesReference(t *testing.T) {
	for _, cfg := range append(figureGeometries(), raidConfig(RAID0, 3)) {
		a, err := New(sim.New(), sim.NewRNG(1), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		requestShapes(a, func(lpn addr.LPN, pages int) {
			// Attribute appends: a prefix in dst must survive untouched.
			got, want := a.Attribute([]int{-1}, lpn, pages), a.refAttribute(lpn, pages)
			if got[0] != -1 {
				t.Fatalf("%s: Attribute(%d, %d) overwrote dst's prefix: %v", a.Name(), lpn, pages, got)
			}
			got = got[1:]
			if len(got) != len(want) {
				t.Fatalf("%s: Attribute(%d, %d) = %v, want %v", a.Name(), lpn, pages, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: Attribute(%d, %d) = %v, want %v", a.Name(), lpn, pages, got, want)
				}
			}
		})
	}
}

// codedLoop drives an array through host IOs, running the kernel until
// each completes. The SSDs' blocks are large enough that no round opens
// a new block: a block's first open allocates its arrays once per block
// lifetime, which the allocation guards leave out.
type codedLoop struct {
	k       *sim.Kernel
	arr     *Array
	payload content.Data
	pending bool
	done    func(error, content.Data)
	waiting func() bool
}

func newCodedLoop(tb testing.TB, cfg Config) *codedLoop {
	tb.Helper()
	p := smallSSD()
	p.PagesPerBlock = 16384
	p = p.Normalize()
	for i := range cfg.Members {
		cfg.Members[i] = p
	}
	if cfg.Level == Cached {
		cfg.Cache = p
	}
	k := sim.New()
	psu, err := power.New(k, power.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	arr, err := New(k, sim.NewRNG(7), cfg, psu)
	if err != nil {
		tb.Fatal(err)
	}
	l := &codedLoop{k: k, arr: arr, payload: content.Random(sim.NewRNG(3), 64)}
	l.done = func(err error, _ content.Data) {
		if err != nil {
			tb.Fatal(err)
		}
		l.pending = false
	}
	l.waiting = func() bool { return l.pending }
	return l
}

// newStripedLoop returns a loop over a striped or mirrored array whose
// pools and members are warmed by every IO shape the guards measure.
func newStripedLoop(tb testing.TB, cfg Config) *codedLoop {
	l := newCodedLoop(tb, cfg)
	for i := 0; i < 64; i++ {
		l.rmw(i)
		l.read(i, 1)
		l.read(i, 2)
		l.flush()
	}
	return l
}

func (l *codedLoop) io(op blockdev.Op, lpn addr.LPN, pages int, data content.Data) {
	l.pending = true
	l.arr.Submit(op, lpn, pages, data, l.done)
	l.k.RunWhile(l.waiting)
}

// rmw writes one page of chunk i%8: a single-chunk parity RMW, or on
// RAID-0 a single member write.
func (l *codedLoop) rmw(i int) {
	sp := l.arr.cfg.StripePages
	l.io(blockdev.OpWrite, addr.LPN((i%8)*sp+i%sp), 1, l.payload.Slice(i%l.payload.Pages(), 1))
}

// flush flushes every member.
func (l *codedLoop) flush() { l.io(blockdev.OpFlush, 0, 0, content.Data{}) }

// read reads `chunks` whole chunks starting at chunk i%8.
func (l *codedLoop) read(i, chunks int) {
	sp := l.arr.cfg.StripePages
	l.io(blockdev.OpRead, addr.LPN((i%8)*sp), chunks*sp, content.Data{})
}

// TestCodedPathAllocs pins that the pooled paths allocate nothing in
// steady state: a RAID-5 one-page RMW reads old data and parity into its
// chunk record's buffer and computes the new parity there, a RAID-0
// one-page write goes straight to its member on the same records, and a
// one-chunk or two-chunk read of either gathers into its request
// record's buffer, which it lends to the host. The members lend their
// read results too. A RAID-1 one-page write and a flush on RAID-0, RAID-1
// and RAID-5 send one pooled chunk record to each member.
func TestCodedPathAllocs(t *testing.T) {
	if racedet.Enabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	for _, cfg := range []Config{raidConfig(RAID5, 4), raidConfig(RAID0, 4), raidConfig(RAID1, 2)} {
		l := newStripedLoop(t, cfg)
		i := 64
		if n := testing.AllocsPerRun(50, func() { i++; l.rmw(i) }); n != 0 {
			t.Errorf("%v: one-page write made %v allocs, want 0", cfg.Level, n)
		}
		if n := testing.AllocsPerRun(50, l.flush); n != 0 {
			t.Errorf("%v: flush made %v allocs, want 0", cfg.Level, n)
		}
		if cfg.Level == RAID1 {
			continue // a mirror read redirects on error through a closure
		}
		if n := testing.AllocsPerRun(50, func() { i++; l.read(i, 1) }); n != 0 {
			t.Errorf("%v: one-chunk read made %v allocs, want 0", cfg.Level, n)
		}
		if n := testing.AllocsPerRun(50, func() { i++; l.read(i, 2) }); n != 0 {
			t.Errorf("%v: two-chunk read made %v allocs, want 0", cfg.Level, n)
		}
	}
}

// TestCachedReadAllocs pins that a cached read rides the same pooled
// records: reads of cache hits only, of misses only and of both in one
// request allocate nothing once warm. The cache is write-through, so no
// destage runs while the guard measures.
func TestCachedReadAllocs(t *testing.T) {
	if racedet.Enabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	l := newCodedLoop(t, cacheConfig(WriteThrough))
	l.io(blockdev.OpWrite, 0, 64, l.payload) // lines for pages 0..63, slots in order
	shapes := []struct {
		what string
		read func(i int)
	}{
		{"hits-only", func(i int) { l.io(blockdev.OpRead, addr.LPN(i%32), 8, content.Data{}) }},
		{"misses-only", func(i int) { l.io(blockdev.OpRead, addr.LPN(4096+8*(i%32)), 8, content.Data{}) }},
		{"hits-and-misses", func(i int) { l.io(blockdev.OpRead, addr.LPN(56+i%8), 16, content.Data{}) }},
	}
	for i := 0; i < 64; i++ {
		for _, s := range shapes {
			s.read(i)
		}
	}
	hits, misses := l.arr.stats.CacheHits, l.arr.stats.CacheMisses
	i := 64
	for _, s := range shapes {
		if n := testing.AllocsPerRun(50, func() { i++; s.read(i) }); n != 0 {
			t.Errorf("%s read made %v allocs, want 0", s.what, n)
		}
	}
	if l.arr.stats.CacheHits == hits || l.arr.stats.CacheMisses == misses {
		t.Fatalf("guard reads counted %d hits and %d misses, want both", l.arr.stats.CacheHits-hits, l.arr.stats.CacheMisses-misses)
	}
}

func BenchmarkCodedRMW(b *testing.B) {
	l := newStripedLoop(b, raidConfig(RAID5, 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.rmw(i)
	}
}

func BenchmarkCodedRead(b *testing.B) {
	l := newStripedLoop(b, raidConfig(RAID5, 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.read(i, 2)
	}
}

// recDrive passes a member's IO through, showing each write to onWrite
// first.
type recDrive struct {
	blockdev.Drive
	onWrite func(lpn addr.LPN, data content.Data)
}

func (d recDrive) Submit(op blockdev.Op, lpn addr.LPN, pages int, data content.Data, done func(error, content.Data)) {
	if op == blockdev.OpWrite {
		d.onWrite(lpn, data)
	}
	d.Drive.Submit(op, lpn, pages, data, done)
}

// codedScript runs one decoded fuzz input against a coded array.
type codedScript struct {
	t    *testing.T
	r    *rig
	sp   int
	span int // host pages the script addresses

	last     []content.Fingerprint // page → last submitted write (0 = never)
	fires    []int                 // op → done calls
	open     int                   // ops not yet answered
	queued   int                   // writes that found a stripe locked and queued
	spans    int                   // reads that spanned chunks
	ones     int                   // reads inside one chunk
	off      bool                  // the supply is cut
	cut      bool                  // the supply was cut at some point
	errs     int                   // ops answered with an error
	nextWid  uint64
	appliedS map[int64]uint64 // stripe → wid of the last data write a member saw
	doneS    map[int64]uint64 // stripe → wid of the last one-stripe write that completed
}

// codedFP names page lpn of write wid, so a member write identifies the
// host write it belongs to.
func codedFP(wid uint64, lpn addr.LPN) content.Fingerprint {
	return content.Fingerprint(wid<<24 | uint64(lpn+1))
}

// scriptGeometries are the arrays FuzzCodedArray picks from: the m+k
// codes with k = 1, 2 and 3, and RAID-0, the m+0 point with no stripe
// lock.
func scriptGeometries() []Config {
	return []Config{raidConfig(RAID5, 4), raidConfig(RAID6, 5), rsConfig(6, 3), raidConfig(RAID0, 3)}
}

func newCodedScript(t *testing.T, geometry byte) *codedScript {
	cfgs := scriptGeometries()
	cfg := cfgs[int(geometry)%len(cfgs)]
	cfg.StripePages = 4
	s := &codedScript{t: t, r: newRig(t, cfg), sp: cfg.StripePages,
		appliedS: map[int64]uint64{}, doneS: map[int64]uint64{}}
	a := s.r.arr
	s.span = 4 * s.sp * (len(a.members) - a.parityCount())
	s.last = make([]content.Fingerprint, s.span)
	for m := range a.members {
		// Members poison every read result they lend once its loan ends,
		// so a record that keeps a member's pages without copying them
		// re-encodes parity from poison and fails the checks.
		a.members[m] = blockdevtest.NewLender(s.r.k, recDrive{Drive: a.members[m], onWrite: func(mlpn addr.LPN, data content.Data) {
			stripe := int64(mlpn) / int64(s.sp)
			if a.isParityMember(int(stripe%int64(len(a.members))), m) {
				return
			}
			wid := uint64(data.Page(0)) >> 24
			if wid < s.appliedS[stripe] {
				t.Fatalf("stripe %d: member %d got write %d after write %d", stripe, m, wid, s.appliedS[stripe])
			}
			s.appliedS[stripe] = wid
		}})
	}
	return s
}

// submit issues one host IO and checks its completion.
func (s *codedScript) submit(op blockdev.Op, lpn addr.LPN, pages int) {
	a := s.r.arr
	id := len(s.fires)
	s.fires = append(s.fires, 0)
	s.open++
	var data content.Data
	var wid uint64
	oneStripe := int64(-1)
	if op == blockdev.OpWrite {
		s.nextWid++
		wid = s.nextWid
		fps := make([]content.Fingerprint, pages)
		for i := range fps {
			fps[i] = codedFP(wid, lpn+addr.LPN(i))
			s.last[int(lpn)+i] = fps[i]
		}
		data = content.Wrap(fps)
		// Only the stripe lock orders completions; RAID-0 has none.
		if first, last := a.chunkAt(lpn, 0, pages), a.chunkAt(lpn, pages-1, pages); first.stripe == last.stripe && a.code != nil {
			oneStripe = first.stripe
		}
	}
	if op == blockdev.OpRead {
		if a.chunkCount(lpn, pages) > 1 {
			s.spans++
		} else {
			s.ones++
		}
	}
	a.Submit(op, lpn, pages, data, func(err error, res content.Data) {
		if s.fires[id]++; s.fires[id] > 1 {
			s.t.Fatalf("op %d (%v %d+%d): done fired %d times", id, op, lpn, pages, s.fires[id])
		}
		s.open--
		if err != nil {
			if !s.cut {
				s.t.Fatalf("op %d (%v %d+%d): %v", id, op, lpn, pages, err)
			}
			s.errs++
		} else if op == blockdev.OpRead && !s.cut {
			// Before any cut a read returns its own pages' data; after
			// one, torn and reconstructed stripes may return other content.
			if res.Pages() != pages {
				s.t.Fatalf("read %d+%d returned %d pages", lpn, pages, res.Pages())
			}
			for i := 0; i < pages; i++ {
				if fp := res.Page(i); fp != 0 && uint64(fp)&(1<<24-1) != uint64(lpn)+uint64(i)+1 {
					s.t.Fatalf("read %d+%d: page %d holds %x, another page's data", lpn, pages, i, fp)
				}
			}
		}
		if oneStripe >= 0 {
			if wid < s.doneS[oneStripe] {
				s.t.Fatalf("stripe %d: write %d completed after write %d", oneStripe, wid, s.doneS[oneStripe])
			}
			s.doneS[oneStripe] = wid
		}
	})
	if op == blockdev.OpWrite {
		for off := 0; off < pages; {
			cr := a.chunkAt(lpn, off, pages)
			if a.stripeLocks[cr.stripe].tail != nil {
				s.queued++
				break
			}
			off += cr.n
		}
	}
}

// run decodes ops three bytes at a time: an op code (read, write, let
// the kernel run for a while, or cut or restore the supply), a start
// page and a length.
func (s *codedScript) run(ops []byte) {
	k := s.r.k
	for len(ops) >= 3 {
		code, at, n := ops[0], ops[1], ops[2]
		ops = ops[3:]
		lpn := int(at) % s.span
		pages := 1 + int(n)%(3*s.sp)
		if lpn+pages > s.span {
			pages = s.span - lpn
		}
		switch code % 8 {
		case 0, 4:
			s.submit(blockdev.OpRead, addr.LPN(lpn), pages)
		case 1, 2, 5, 6:
			s.submit(blockdev.OpWrite, addr.LPN(lpn), pages)
		case 3: // up to ~19 ms: member IOs take ~0.1 ms, a cut drains for ms
			d := sim.Duration(code >> 3)
			k.RunFor(d * d * 20 * sim.Microsecond)
		case 7:
			if s.off {
				s.r.psu.PowerOn()
			} else {
				s.r.psu.PowerOff()
				s.cut = true
			}
			s.off = !s.off
		}
	}
	if s.off {
		s.r.psu.PowerOn()
	}
	// The members' journal ticks never stop, so "idle" is every op
	// answered and every member back, with a deadline that turns a lost
	// completion into a failure instead of a hang.
	deadline := k.Now().Add(20 * sim.Second)
	k.RunWhile(func() bool { return (s.open > 0 || !s.r.arr.Ready()) && k.Now() < deadline })
	s.check()
}

// check runs on the idle array: every op answered once, no stripe
// locked and every pooled record free; without a cut, also every page
// reads back its last write and, where there is parity, every stripe's
// parity re-encodes from its data.
func (s *codedScript) check() {
	t, a := s.t, s.r.arr
	for id, n := range s.fires {
		if n != 1 {
			t.Fatalf("op %d: done fired %d times", id, n)
		}
	}
	if len(a.stripeLocks) != 0 {
		t.Fatalf("%d stripes still locked on an idle array", len(a.stripeLocks))
	}
	recordsFree(t, a)
	if s.cut {
		return // lost writes and write holes are the model's output
	}
	got, err := s.r.read(t, 0, s.span)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range s.last {
		if got.Page(i) != want {
			t.Fatalf("page %d reads %x, last write was %x", i, got.Page(i), want)
		}
	}
	n, kp := len(a.members), a.parityCount()
	if kp == 0 {
		return
	}
	for stripe := int64(0); stripe < int64(s.span/(s.sp*(n-kp))); stripe++ {
		p0 := int(stripe % int64(n))
		rows := make([]content.Data, n)
		for m := range rows {
			rows[m] = readMember(t, s.r, m, addr.LPN(stripe*int64(s.sp)), s.sp)
		}
		for i := 0; i < s.sp; i++ {
			data := make([]content.Fingerprint, n-kp)
			for m := 0; m < n; m++ {
				if slot := a.slotOf(p0, m); slot < n-kp {
					data[slot] = rows[m].Page(i)
				}
			}
			for j, want := range a.code.Encode(data) {
				if got := rows[a.parityMember(p0, j)].Page(i); got != want {
					t.Fatalf("stripe %d row %d: parity %d is %x, data encodes to %x", stripe, i, j, got, want)
				}
			}
		}
	}
}

// FuzzCodedArray drives overlapping concurrent reads and writes through
// RAID-5, RAID-6, RS (k = 3) and RAID-0 arrays and checks the striped
// path's contract on the idle array (see codedScript.check), plus, as
// the IOs run, that writes reach each stripe in submission order and,
// under a stripe lock, that one-stripe writes to a stripe complete in
// submission order.
func FuzzCodedArray(f *testing.F) {
	for _, seed := range codedSeeds {
		f.Add(seed.geometry, seed.ops)
	}
	f.Fuzz(func(t *testing.T, geometry byte, ops []byte) {
		if len(ops) > 192 {
			ops = ops[:192]
		}
		newCodedScript(t, geometry).run(ops)
	})
}

// codedSeeds is FuzzCodedArray's seed corpus, the part tier-1 runs.
var codedSeeds = []struct {
	geometry byte
	ops      []byte
}{
	{0, nil},
	{0, []byte{1, 0, 1, 1, 0, 1, 1, 2, 20, 0, 1, 1, 0, 0, 47}},
	{1, []byte{1, 3, 11, 2, 5, 7, 0, 4, 9, 1, 11, 2, 0, 5, 2, 11, 0, 0, 1, 0, 35, 0, 0, 47}},
	{2, []byte{2, 0, 11, 1, 4, 11, 2, 8, 11, 0, 2, 11, 0, 9, 0, 1, 1, 1, 59, 0, 0, 1, 6, 3, 0, 10, 11}},
	// IO keeps arriving while the cut supply drains, then after restore.
	{3, []byte{1, 0, 11, 2, 3, 11, 0, 1, 1, 0, 2, 11, 0, 5, 2, 1, 1, 1, 59, 0, 0, 0, 0, 47}},
	{0, cutScript},
	{1, cutScript},
	{2, cutScript},
	{3, cutScript},
}

var cutScript = []byte{
	1, 0, 12, 2, 12, 12, 0, 1, 1, 0, 0, 30, 7, 0, 0, 1, 3, 2, 2, 20, 9,
	251, 0, 0, 1, 5, 5, 0, 0, 30, 251, 0, 0, 2, 8, 3, 0, 2, 1, 251, 0, 0,
	251, 0, 0, 1, 0, 4, 7, 0, 0, 1, 4, 2, 0, 0, 20,
}

// TestCodedSeedsCoverCases guards the seed corpus against going vacuous:
// on every geometry some read stays inside one chunk, some read spans
// chunks, a cut fails some IO and, where there is a stripe lock, some
// write queues behind a locked stripe.
func TestCodedSeedsCoverCases(t *testing.T) {
	n := len(scriptGeometries())
	queued, ones, spans, errs := make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	locks := make([]bool, n)
	for _, seed := range codedSeeds {
		s := newCodedScript(t, seed.geometry)
		s.run(seed.ops)
		g := int(seed.geometry) % n
		locks[g] = s.r.arr.code != nil
		queued[g] += s.queued
		ones[g] += s.ones
		spans[g] += s.spans
		errs[g] += s.errs
	}
	for g := range queued {
		if (locks[g] && queued[g] == 0) || ones[g] == 0 || spans[g] == 0 || errs[g] == 0 {
			t.Errorf("geometry %d: %d queued writes, %d one-chunk and %d chunk-spanning reads, %d failed ops; want all > 0",
				g, queued[g], ones[g], spans[g], errs[g])
		}
	}
}
