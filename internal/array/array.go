// Package array composes several simulated drives into one composite
// blockdev.Drive: striping (RAID-0), mirroring (RAID-1), rotating
// distributed parity with read-modify-write (RAID-5), double parity over
// GF(256) (RAID-6), general m+k Reed-Solomon (RS, any Parity erasures
// reconstructable), and an SSD cache fronting an HDD in write-back or
// write-through policy. Members may use heterogeneous SSD profiles, so a
// mixed array can carry one weak (e.g. QLC) drive among stronger ones.
//
// The decisive property of the platform is that every member hangs off the
// same simulated PSU, exactly like the drives in the paper's rig share one
// Arduino-switched ATX supply: a power cut is *correlated* across the
// array, hitting every member mid-flight. The interesting multi-device
// failures — the RAID-5 write hole, mirror divergence, dirty write-back
// cache lines dying in front of a durable backend — are not scripted here;
// they emerge from each member's own power-failure model (volatile DRAM
// caches, interrupted programs, lost mapping runs) composing with the
// array-level redundancy and ordering. The write hole and mirror
// divergence are media-level effects: after a cut, rows whose members
// disagree on media remain while every member acknowledged or failed
// alike (TestCutLeavesMembersDisagreeingOnMedia pins both), so
// Stats.WriteHoles, which counts a partial acknowledgement set, reads 0.
//
// Parity is computed over page fingerprints (content.Fingerprint is a
// 64-bit content identifier, so XOR of fingerprints is a faithful stand-in
// for XOR of page bytes: equal iff the underlying parity bytes are equal).
// The coded levels extend this lane-wise: GF(256) multiplication applies
// to each of a fingerprint's eight bytes, so Reed-Solomon algebra over
// fingerprints stands in for the same algebra over page bytes.
package array

import (
	"errors"
	"fmt"
	"strings"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/hdd"
	"powerfail/internal/obs"
	"powerfail/internal/pool"
	"powerfail/internal/power"
	"powerfail/internal/sim"
	"powerfail/internal/ssd"
)

// Level selects the composition.
type Level int

// Array levels. Cached is the SSD-cache-over-HDD mode; the RAID levels
// stripe, mirror, or rotate parity over the member SSDs. RAID6 rotates
// two parities (P+Q over GF(256)) and RS is the general m+k
// Reed-Solomon level whose parity count Config.Parity picks.
const (
	RAID0 Level = iota
	RAID1
	RAID5
	Cached
	RAID6
	RS
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case RAID0:
		return "raid0"
	case RAID1:
		return "raid1"
	case RAID5:
		return "raid5"
	case Cached:
		return "cache"
	case RAID6:
		return "raid6"
	case RS:
		return "rs"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// CachePolicy selects when a Cached array acknowledges writes.
type CachePolicy int

// Cache policies. WriteBack acknowledges once the SSD holds the data (the
// dangerous, fast mode); WriteThrough waits for the backing HDD too.
const (
	WriteBack CachePolicy = iota
	WriteThrough
)

// String implements fmt.Stringer.
func (p CachePolicy) String() string {
	if p == WriteThrough {
		return "write-through"
	}
	return "write-back"
}

// Config describes a composite device.
type Config struct {
	Level Level
	// Members are the per-member SSD models of a RAID or RS array (ignored
	// by Cached). The entries need not be identical: a heterogeneous array
	// mixes drive models (capacities, cache sizes, cell technologies), and
	// the composite exports the capacity of its smallest member times the
	// data-member count. Failure attribution (Attribute) charges a lost
	// page to the member that held it, so MemberReport shows how each
	// drive's failures compare with its siblings'.
	Members []ssd.Profile
	// StripePages is the striped levels' chunk size in 4 KiB pages
	// (default 16, a 64 KiB chunk).
	StripePages int
	// Parity is the parity-shard count per stripe of the striped levels:
	// fixed at 1 for RAID5 and 2 for RAID6; for RS any value with at least
	// two data members left (default 2). Every other level is set to 0,
	// which makes RAID0 the m+0 point of the same striped code.
	Parity int

	// Cache and Backing configure the Cached level: an SSD in front of an
	// HDD. Zero values select ssd.ProfileA() and hdd.DefaultProfile().
	Cache   ssd.Profile
	Backing hdd.Profile
	Policy  CachePolicy
	// DestageTick paces the write-back destage scan (default 20 ms).
	DestageTick sim.Duration
	// DestageBatchPages bounds lines destaged per tick (default 64).
	DestageBatchPages int
}

func (c Config) withDefaults() Config {
	if c.StripePages == 0 {
		c.StripePages = 16
	}
	switch c.Level {
	case RAID5:
		c.Parity = 1
	case RAID6:
		c.Parity = 2
	case RS:
		if c.Parity == 0 {
			c.Parity = 2
		}
	default:
		c.Parity = 0
	}
	if c.Level == Cached {
		if c.Cache.Name == "" {
			c.Cache = ssd.ProfileA()
		}
		if c.Backing.Name == "" {
			c.Backing = hdd.DefaultProfile()
		}
		if c.DestageTick == 0 {
			c.DestageTick = 20 * sim.Millisecond
		}
		if c.DestageBatchPages == 0 {
			c.DestageBatchPages = 64
		}
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.StripePages <= 0 {
		return fmt.Errorf("array: StripePages must be positive, got %d", c.StripePages)
	}
	switch c.Level {
	case RAID0:
		if len(c.Members) < 2 {
			return fmt.Errorf("array: raid0 needs >= 2 members, got %d", len(c.Members))
		}
	case RAID1:
		if len(c.Members) < 2 {
			return fmt.Errorf("array: raid1 needs >= 2 members, got %d", len(c.Members))
		}
	case RAID5:
		if len(c.Members) < 3 {
			return fmt.Errorf("array: raid5 needs >= 3 members, got %d", len(c.Members))
		}
	case RAID6:
		if len(c.Members) < 4 {
			return fmt.Errorf("array: raid6 needs >= 4 members, got %d", len(c.Members))
		}
	case RS:
		if c.Parity < 1 {
			return fmt.Errorf("array: rs needs Parity >= 1, got %d", c.Parity)
		}
		if len(c.Members) < c.Parity+2 {
			return fmt.Errorf("array: rs with %d parities needs >= %d members, got %d",
				c.Parity, c.Parity+2, len(c.Members))
		}
	case Cached:
		if len(c.Members) != 0 {
			return fmt.Errorf("array: cached level takes Cache/Backing, not Members")
		}
		if err := c.Backing.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("array: unknown level %d", int(c.Level))
	}
	if (c.Level == RAID5 || c.Level == RAID6 || c.Level == RS) && len(c.Members) > 255 {
		return fmt.Errorf("array: %v supports at most 255 members (GF(256) shards), got %d", c.Level, len(c.Members))
	}
	return nil
}

// ErrOutOfRange reports an access beyond the array's exported capacity.
var ErrOutOfRange = errors.New("array: address beyond array capacity")

// Stats counts array-level activity. Member-device internals (deaths,
// dirty pages lost, interrupted programs) live on the members themselves.
type Stats struct {
	HostReads   int64 `json:"host_reads"`
	HostWrites  int64 `json:"host_writes"`
	HostFlushes int64 `json:"host_flushes"`
	HostErrors  int64 `json:"host_errors"`

	// RAID counters.
	ParityRMWs      int64 `json:"parity_rmws,omitempty"`
	WriteHoles      int64 `json:"write_holes,omitempty"` // RMW where a proper subset of data+parity writes was acknowledged; stale parity on media is not counted
	Reconstructions int64 `json:"reconstructions,omitempty"`
	RedirectedReads int64 `json:"redirected_reads,omitempty"`

	// Cache counters.
	CacheHits    int64 `json:"cache_hits,omitempty"`
	CacheMisses  int64 `json:"cache_misses,omitempty"`
	Destages     int64 `json:"destages,omitempty"`
	LinesDropped int64 `json:"lines_dropped,omitempty"` // invalidated on crash recovery
	Bypasses     int64 `json:"bypasses,omitempty"`      // cache full: request went straight to the backing drive
}

// MemberStats is the array's view of one member's service counters.
type MemberStats struct {
	Name   string `json:"name"`
	Role   string `json:"role"` // "data", "mirror", "cache", "backing"
	Reads  int64  `json:"reads"`
	Writes int64  `json:"writes"`
	Errors int64  `json:"errors"`
}

// Array is the composite device under test.
type Array struct {
	k   *sim.Kernel
	cfg Config

	members   []blockdev.Drive
	ssds      []*ssd.Device
	backing   *hdd.Disk
	perMember []MemberStats
	up        []bool

	// RAID geometry.
	memberPages int64 // usable pages per member (stripe-rounded for the striped levels)
	userPages   int64
	code        *Code // erasure code of the RAID5/RAID6/RS levels (nil otherwise)

	rrNext      int                   // raid1 read rotation cursor
	stripeLocks map[int64]stripeQueue // coded levels: busy stripes and their waiting RMW cycles
	tele        obs.Scope             // trace instants of the failure phenomena; zero when not observed

	// Pooled per-IO records (experiments are single-threaded).
	ops    pool.FreeList[codedOp]
	chunks pool.FreeList[chunkOp]
	calls  pool.FreeList[memberCall]

	// Cached level state.
	lines     map[addr.LPN]*cline
	dirtyHead *cline // FIFO of dirty lines awaiting destage
	dirtyTail *cline
	freeSlots []addr.LPN
	nextSlot  addr.LPN
	ssdPages  int64
	destaging sim.Timer

	stats          Stats
	readyListeners []func()
	downListeners  []func()
}

// New builds the composite device, constructing every member over the same
// PSU rail so one power fault hits the whole array. psu may be nil for
// unpowered unit tests.
func New(k *sim.Kernel, r *sim.RNG, cfg Config, psu *power.PSU) (*Array, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Array{k: k, cfg: cfg, stripeLocks: make(map[int64]stripeQueue)}

	if cfg.Level == Cached {
		cache, err := ssd.New(k, r.Fork("cache"), cfg.Cache, psu)
		if err != nil {
			return nil, fmt.Errorf("array: cache member: %w", err)
		}
		back, err := hdd.New(k, r.Fork("backing"), cfg.Backing, psu)
		if err != nil {
			return nil, fmt.Errorf("array: backing member: %w", err)
		}
		a.members = []blockdev.Drive{cache, back}
		a.ssds = []*ssd.Device{cache}
		a.backing = back
		a.perMember = []MemberStats{
			{Name: cache.Name(), Role: "cache"},
			{Name: back.Name(), Role: "backing"},
		}
		a.ssdPages = cache.UserPages()
		a.userPages = back.UserPages()
		a.lines = make(map[addr.LPN]*cline)
	} else {
		role := "data"
		if cfg.Level == RAID1 {
			role = "mirror"
		}
		minPages := int64(-1)
		for i, prof := range cfg.Members {
			dev, err := ssd.New(k, r.Fork(fmt.Sprintf("member%d", i)), prof, psu)
			if err != nil {
				return nil, fmt.Errorf("array: member %d: %w", i, err)
			}
			a.members = append(a.members, dev)
			a.ssds = append(a.ssds, dev)
			a.perMember = append(a.perMember, MemberStats{Name: dev.Name(), Role: role})
			if minPages < 0 || dev.UserPages() < minPages {
				minPages = dev.UserPages()
			}
		}
		sp := int64(cfg.StripePages)
		n := int64(len(a.members))
		if cfg.Level == RAID1 {
			a.memberPages = minPages
			a.userPages = minPages
		} else {
			kp := int64(cfg.Parity)
			a.memberPages = (minPages / sp) * sp
			a.userPages = (n - kp) * a.memberPages
			if kp > 0 {
				a.code = newCode(int(n-kp), int(kp))
			}
		}
	}

	a.up = make([]bool, len(a.members))
	for i := range a.members {
		idx := i
		a.up[i] = true
		a.members[i].NotifyDown(func() { a.onMemberDown(idx) })
		a.members[i].NotifyReady(func() { a.onMemberReady(idx) })
	}
	return a, nil
}

// Config returns the (defaulted) configuration.
func (a *Array) Config() Config { return a.cfg }

// Name implements blockdev.Drive: "raid5x4[A]" or "cache-wb[A/HDD]".
func (a *Array) Name() string {
	if a.cfg.Level == Cached {
		pol := "wb"
		if a.cfg.Policy == WriteThrough {
			pol = "wt"
		}
		return fmt.Sprintf("cache-%s[%s/%s]", pol, a.members[0].Name(), a.members[1].Name())
	}
	names := make([]string, 0, len(a.members))
	same := true
	for _, m := range a.members {
		if m.Name() != a.members[0].Name() {
			same = false
		}
		names = append(names, m.Name())
	}
	label := a.members[0].Name()
	if !same {
		label = strings.Join(names, ",")
	}
	return fmt.Sprintf("%sx%d[%s]", a.cfg.Level, len(a.members), label)
}

// UserPages implements blockdev.Drive.
func (a *Array) UserPages() int64 { return a.userPages }

// Ready implements blockdev.Drive: the array answers once every member does.
func (a *Array) Ready() bool {
	for _, m := range a.members {
		if !m.Ready() {
			return false
		}
	}
	return true
}

// NotifyReady implements blockdev.Drive; fn fires when the *last* member of
// a downed array comes back (after the array's own crash recovery, such as
// dropping stale cache lines, has run).
func (a *Array) NotifyReady(fn func()) { a.readyListeners = append(a.readyListeners, fn) }

// NotifyDown implements blockdev.Drive; fn fires when the first member of a
// fully-up array drops.
func (a *Array) NotifyDown(fn func()) { a.downListeners = append(a.downListeners, fn) }

// Stats returns a snapshot of the array-level counters.
func (a *Array) Stats() Stats { return a.stats }

// Members returns the per-member service counters, index-aligned with the
// construction order (RAID members, or [cache, backing]).
func (a *Array) Members() []MemberStats {
	out := make([]MemberStats, len(a.perMember))
	copy(out, a.perMember)
	return out
}

// Drive returns member i's device for stats inspection.
func (a *Array) Drive(i int) blockdev.Drive { return a.members[i] }

// SSDs returns the SSD members (all RAID members, or the cache).
func (a *Array) SSDs() []*ssd.Device { return a.ssds }

// Backing returns the backing HDD of a Cached array (nil otherwise).
func (a *Array) Backing() *hdd.Disk { return a.backing }

func (a *Array) onMemberDown(i int) {
	wasUp := true
	for _, u := range a.up {
		wasUp = wasUp && u
	}
	a.up[i] = false
	if wasUp {
		for _, fn := range a.downListeners {
			fn()
		}
	}
}

func (a *Array) onMemberReady(i int) {
	a.up[i] = true
	for _, u := range a.up {
		if !u {
			return
		}
	}
	// Last member back: run the array's own recovery before telling the
	// platform the composite device is ready again.
	if a.cfg.Level == Cached {
		a.recoverCache()
	}
	for _, fn := range a.readyListeners {
		fn()
	}
}

// memberCall is a pooled member-completion record. cb is created once,
// capturing the record; each use refills it and hands the same closure
// to the member, so a member IO allocates nothing in steady state. A
// chunk's IO (see erasure.go) names its chunk, role and shard; the other
// IOs pass their continuation as done.
type memberCall struct {
	member int
	chunk  *chunkOp
	role   callRole
	j      int
	done   func(error, content.Data)
	cb     func(error, content.Data)
}

func (a *Array) newCall() *memberCall {
	c, fresh := a.calls.Get()
	if fresh {
		c.cb = func(err error, res content.Data) {
			member, ch, role, j, done := c.member, c.chunk, c.role, c.j, c.done
			c.chunk, c.done = nil, nil
			a.calls.Put(c)
			if err != nil {
				a.perMember[member].Errors++
			}
			if done != nil {
				done(err, res)
				return
			}
			a.chunkDone(ch, role, j, err, res)
		}
	}
	return c
}

// call wraps a continuation in a pooled member-completion record.
func (a *Array) call(done func(error, content.Data)) *memberCall {
	c := a.newCall()
	c.done = done
	return c
}

// memberSubmit routes one operation to member i, keeping service counters;
// c's record receives the completion.
func (a *Array) memberSubmit(i int, op blockdev.Op, lpn addr.LPN, pages int, data content.Data, c *memberCall) {
	ms := &a.perMember[i]
	switch op {
	case blockdev.OpRead:
		ms.Reads++
	case blockdev.OpWrite:
		ms.Writes++
	}
	c.member = i
	a.members[i].Submit(op, lpn, pages, data, c.cb)
}

// Submit implements blockdev.Device.
func (a *Array) Submit(op blockdev.Op, lpn addr.LPN, pages int, data content.Data, done func(error, content.Data)) {
	if op != blockdev.OpFlush && (lpn < 0 || int64(lpn)+int64(pages) > a.userPages) {
		a.stats.HostErrors++
		a.k.After(500*sim.Microsecond, func() { done(ErrOutOfRange, content.Data{}) })
		return
	}
	switch {
	case op == blockdev.OpFlush:
		if a.cfg.Level == Cached && a.cfg.Policy == WriteBack {
			a.destageAll() // force the dirty lines toward the backing drive first
		}
		a.submitEach(op, 0, 0, content.Data{}, done)
	case a.cfg.Level == RAID1 && op == blockdev.OpWrite:
		a.submitEach(op, lpn, pages, data, done)
	case a.cfg.Level == RAID1:
		a.mirrorRead(lpn, pages, a.nextReplica(), 0, a.counted(op, done))
	case a.cfg.Level == Cached && op == blockdev.OpRead:
		a.cachedRead(lpn, pages, done)
	case a.cfg.Level == Cached:
		a.cachedWrite(lpn, pages, data, a.counted(op, done))
	default: // RAID-0 and the parity levels: the m+k code, k >= 0
		a.submitCoded(op, lpn, pages, data, done)
	}
}

// counted wraps done so the host request's outcome is counted first;
// the pooled paths count in partDone instead.
func (a *Array) counted(op blockdev.Op, done func(error, content.Data)) func(error, content.Data) {
	return func(err error, res content.Data) {
		a.countHost(op, err)
		done(err, res)
	}
}

// countHost records one host request's outcome.
func (a *Array) countHost(op blockdev.Op, err error) {
	if err != nil {
		a.stats.HostErrors++
		return
	}
	switch op {
	case blockdev.OpRead:
		a.stats.HostReads++
	case blockdev.OpWrite:
		a.stats.HostWrites++
	default:
		a.stats.HostFlushes++
	}
}

// Attribute appends to dst the member indices that hold (or held) the
// data of an LPN range and returns the extended slice: for the striped
// levels the member whose chunk holds each page, once per member in
// first-seen order; every mirror for RAID-1 (a divergent mirror cannot
// be singled out without a scrub); and for the Cached level the cache
// SSD for pages with a resident line (dirty lines live nowhere else) or
// the backing drive for uncached pages. Parity members are not charged:
// a lost page is the loss of the member that held it. A caller that
// reuses dst attributes without allocating.
func (a *Array) Attribute(dst []int, lpn addr.LPN, pages int) []int {
	switch a.cfg.Level {
	case RAID1:
		for i := range a.members {
			dst = append(dst, i)
		}
		return dst
	case Cached:
		var set [2]bool
		for i := 0; i < pages; i++ {
			if _, ok := a.lines[lpn+addr.LPN(i)]; ok {
				set[0] = true
			} else {
				set[1] = true
			}
		}
		for i, on := range set {
			if on {
				dst = append(dst, i)
			}
		}
		return dst
	}
	// Members in first-seen order; at most 255 of them (Validate).
	var seen [4]uint64
	for off := 0; off < pages; {
		cr := a.chunkAt(lpn, off, pages)
		off += cr.n
		if m, bit := cr.member, uint64(1)<<(cr.member&63); seen[m>>6]&bit == 0 {
			seen[m>>6] |= bit
			dst = append(dst, m)
		}
	}
	return dst
}

// chunkRange maps a contiguous page run of a host request onto one member.
type chunkRange struct {
	member int      // data member index (the cached level: cache or backing)
	mlpn   addr.LPN // member-local page address
	off    int      // page offset within the host request
	n      int      // pages
	stripe int64    // striped levels: global stripe id (the parity levels' lock key)
	parity int      // striped levels: first parity member of the stripe's rotation
	didx   int      // striped levels: logical data-shard index within the stripe
}

// parityCount returns the parity shards per stripe: Config.Parity, which
// withDefaults sets to 0 on every level without parity.
func (a *Array) parityCount() int { return a.cfg.Parity }

// parityMember returns the member holding the j-th parity shard of a
// stripe whose rotating parity run starts at member p0.
func (a *Array) parityMember(p0, j int) int { return (p0 + j) % len(a.members) }

// isParityMember reports whether member m holds one of the k parity
// shards of a stripe whose parity run starts at p0.
func (a *Array) isParityMember(p0, m int) bool {
	d := m - p0
	if d < 0 {
		d += len(a.members)
	}
	return d < a.parityCount()
}

// dataMember returns the member holding logical data shard idx of a
// stripe whose parity run starts at p0: members in increasing index
// order, skipping the parity run. (For RAID-5's single parity this is the
// classic skip-one layout.)
func (a *Array) dataMember(p0, idx int) int {
	for m := 0; ; m++ {
		if a.isParityMember(p0, m) {
			continue
		}
		if idx == 0 {
			return m
		}
		idx--
	}
}

// slotOf returns member m's logical shard slot in a stripe whose parity
// run starts at p0: data shards 0..m-1 in member order, then parity
// shards in rotation order.
func (a *Array) slotOf(p0, m int) int {
	if a.isParityMember(p0, m) {
		d := m - p0
		if d < 0 {
			d += len(a.members)
		}
		return len(a.members) - a.parityCount() + d
	}
	slot := 0
	for i := 0; i < m; i++ {
		if !a.isParityMember(p0, i) {
			slot++
		}
	}
	return slot
}

// chunkCount returns how many chunk ranges [lpn, lpn+pages) spans on the
// striped levels.
func (a *Array) chunkCount(lpn addr.LPN, pages int) int {
	if pages <= 0 {
		return 0
	}
	sp := int64(a.cfg.StripePages)
	return int((int64(lpn)+int64(pages)-1)/sp - int64(lpn)/sp + 1)
}

// chunkAt returns the chunk range that starts off pages into the request
// [lpn, lpn+pages) on the striped levels (RAID-0 and the parity levels);
// walking off by each range's n visits them all in address order. With
// no parity a stripe is one chunk per member, so RAID-0's chunk c lands
// on member c mod n at row c / n.
func (a *Array) chunkAt(lpn addr.LPN, off, pages int) chunkRange {
	sp := int64(a.cfg.StripePages)
	n := int64(len(a.members))
	cur := int64(lpn) + int64(off)
	chunk := cur / sp
	in := cur % sp
	run := int(sp - in)
	if rem := pages - off; run > rem {
		run = rem
	}
	dataPer := n - int64(a.cfg.Parity)
	stripe := chunk / dataPer
	idx := int(chunk % dataPer)
	parity := int(stripe % n)
	return chunkRange{
		member: a.dataMember(parity, idx),
		mlpn:   addr.LPN(stripe*sp + in),
		off:    off,
		n:      run,
		stripe: stripe,
		parity: parity,
		didx:   idx,
	}
}
