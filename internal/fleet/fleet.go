package fleet

import (
	"fmt"
	"math"
	"sort"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/obs"
	"powerfail/internal/pool"
	"powerfail/internal/sim"
)

func lpnOf(p int64) addr.LPN { return addr.LPN(p) }

// RebuildPolicy tunes the fleet controller's reaction to member failures.
type RebuildPolicy struct {
	// Delay is the grace window between a member going dark and declaring
	// it failed; outages shorter than this are transient (default 2 s).
	Delay sim.Duration `json:"delay_ns"`
	// ChunkPages is the rebuild copy granularity (default 64 pages).
	ChunkPages int `json:"chunk_pages"`
	// BackupBandwidth paces inter-group restores from the backup tier, in
	// bytes per second (default 50 MiB/s).
	BackupBandwidth int64 `json:"backup_bandwidth"`
	// ControllerTick is how often the controller retries spare allocation
	// and stalled rebuilds (default 1 s).
	ControllerTick sim.Duration `json:"controller_tick_ns"`
}

func (p RebuildPolicy) withDefaults() RebuildPolicy {
	if p.Delay == 0 {
		p.Delay = 2 * sim.Second
	}
	if p.ChunkPages == 0 {
		p.ChunkPages = 64
	}
	if p.BackupBandwidth == 0 {
		p.BackupBandwidth = 50 << 20
	}
	if p.ControllerTick == 0 {
		p.ControllerTick = sim.Second
	}
	return p
}

// Validate checks the policy.
func (p RebuildPolicy) Validate() error {
	if p.Delay < 0 || p.ChunkPages < 1 || p.BackupBandwidth < 1 || p.ControllerTick <= 0 {
		return fmt.Errorf("fleet: invalid rebuild policy: %+v", p)
	}
	return nil
}

// WorkloadConfig shapes the open-loop foreground traffic each group serves
// while faults and rebuilds play out.
type WorkloadConfig struct {
	// MeanInterarrival is the exponential mean between requests per group
	// (default 20 ms); negative disables foreground IO entirely.
	MeanInterarrival sim.Duration `json:"mean_interarrival_ns"`
	// IOPages is the request size (default 8 pages = 32 KiB).
	IOPages int `json:"io_pages"`
	// ReadFraction is the probability a request is a read (default 0.7).
	ReadFraction float64 `json:"read_fraction"`
}

func (w WorkloadConfig) withDefaults() WorkloadConfig {
	if w.MeanInterarrival == 0 {
		w.MeanInterarrival = 20 * sim.Millisecond
	}
	if w.IOPages == 0 {
		w.IOPages = 8
	}
	if w.ReadFraction == 0 {
		w.ReadFraction = 0.7
	}
	return w
}

// Validate checks the workload shape.
func (w WorkloadConfig) Validate() error {
	if w.IOPages < 1 || w.ReadFraction < 0 || w.ReadFraction > 1 {
		return fmt.Errorf("fleet: invalid workload config: %+v", w)
	}
	return nil
}

// CutEvent is one scripted fault: at instant At, cut the Index-th node of
// the given Level for Outage, then restore it.
type CutEvent struct {
	At     sim.Time     `json:"at_ns"`
	Level  Level        `json:"level"`
	Index  int          `json:"index"`
	Outage sim.Duration `json:"outage_ns"`
}

// FaultPlan describes where the fault scheduler draws cut targets from the
// domain tree: either a fixed Script, or Count random cuts at one Level
// with exponential spacing.
type FaultPlan struct {
	// Script, when non-empty, replaces the random plan entirely.
	Script []CutEvent `json:"script,omitempty"`
	// Level is the tier random cuts target (default PSU when the whole
	// plan is zero; note the zero Level value is Room).
	Level Level `json:"level"`
	// Count is the number of random cuts (default 3).
	Count int `json:"count"`
	// MeanBetween selects the spacing model: zero (the default) draws the
	// Count cut instants uniformly inside the horizon so every cut fires;
	// a positive value spaces cuts exponentially with that mean rate, and
	// cuts that land past the horizon are dropped.
	MeanBetween sim.Duration `json:"mean_between_ns"`
	// Outage is how long each random cut lasts (default 5 s).
	Outage sim.Duration `json:"outage_ns"`
}

func (p FaultPlan) withDefaults() FaultPlan {
	if len(p.Script) > 0 {
		return p
	}
	if p.Level == Room && p.Count == 0 && p.Outage == 0 {
		p.Level = PSU
	}
	if p.Count == 0 {
		p.Count = 3
	}
	if p.Outage == 0 {
		p.Outage = 5 * sim.Second
	}
	return p
}

// Validate checks the plan.
func (p FaultPlan) Validate() error {
	for i, ev := range p.Script {
		if ev.Level < 0 || ev.Level >= numLevels || ev.Index < 0 || ev.Outage <= 0 || ev.At < 0 {
			return fmt.Errorf("fleet: invalid script event %d: %+v", i, ev)
		}
	}
	if len(p.Script) > 0 {
		return nil
	}
	if p.Level < 0 || p.Level >= numLevels || p.Count < 0 || p.MeanBetween < 0 || p.Outage <= 0 {
		return fmt.Errorf("fleet: invalid fault plan: %+v", p)
	}
	return nil
}

// Config describes a whole fleet experiment: the fault-domain tree, the
// population of redundancy groups and spares on it, the rebuild policy,
// the fault plan and the foreground workload.
type Config struct {
	// Domains sizes the fault-domain tree (default 2×2×2).
	Domains DomainConfig `json:"domains"`
	// Arrays is the number of redundancy groups (default 8).
	Arrays int `json:"arrays"`
	// GroupSize is members per group (default 4). With the default
	// Parity of 1 this is the RAID-5-like m+1 arrangement.
	GroupSize int `json:"group_size"`
	// Parity is the per-group erasure tolerance k of an m+k code: the
	// group serves degraded with up to Parity bays unavailable and only
	// declares data loss when more than Parity bays hold declared-invalid
	// data (default 1, the RAID-5 rule; 2 models RAID-6 groups).
	Parity int `json:"parity"`
	// Spares is the standby spare drive count; zero means none.
	Spares int `json:"spares"`
	// Member is the drive service model.
	Member MemberProfile `json:"member"`
	// Host tunes each member's block layer (zero → blockdev defaults).
	Host blockdev.Config `json:"-"`
	// Rebuild is the controller policy.
	Rebuild RebuildPolicy `json:"rebuild"`
	// Workload is the foreground traffic shape.
	Workload WorkloadConfig `json:"workload"`
	// Faults is the fault plan over the tree.
	Faults FaultPlan `json:"faults"`
	// Duration is the simulated horizon (default 30 s).
	Duration sim.Duration `json:"duration_ns"`
}

// DefaultConfig is a small fleet: 8 RAID-5 groups of 4 on the default
// 2×2×2 tree with 2 spares, 3 random PSU cuts over 30 s.
func DefaultConfig() Config {
	return Config{Arrays: 8, GroupSize: 4, Spares: 2}.WithDefaults()
}

// WithDefaults fills unset fields. Spares is left alone: zero spares is a
// meaningful configuration.
func (c Config) WithDefaults() Config {
	c.Domains = c.Domains.withDefaults()
	if c.Arrays == 0 {
		c.Arrays = 8
	}
	if c.GroupSize == 0 {
		c.GroupSize = 4
	}
	if c.Parity == 0 {
		c.Parity = 1
	}
	c.Member = c.Member.withDefaults()
	if c.Host == (blockdev.Config{}) {
		c.Host = blockdev.DefaultConfig()
	}
	c.Rebuild = c.Rebuild.withDefaults()
	c.Workload = c.Workload.withDefaults()
	c.Faults = c.Faults.withDefaults()
	if c.Duration == 0 {
		c.Duration = 30 * sim.Second
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Domains.Validate(); err != nil {
		return err
	}
	if c.Arrays < 1 {
		return fmt.Errorf("fleet: need at least one array, got %d", c.Arrays)
	}
	if c.GroupSize < 2 {
		return fmt.Errorf("fleet: group size must be >= 2, got %d", c.GroupSize)
	}
	if c.Parity < 1 || c.Parity >= c.GroupSize {
		return fmt.Errorf("fleet: parity must be in [1, group size), got %d of %d", c.Parity, c.GroupSize)
	}
	if c.Spares < 0 {
		return fmt.Errorf("fleet: spares must be >= 0, got %d", c.Spares)
	}
	if err := c.Member.Validate(); err != nil {
		return err
	}
	if err := c.Host.Validate(); err != nil {
		return err
	}
	if err := c.Rebuild.Validate(); err != nil {
		return err
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.Duration <= 0 {
		return fmt.Errorf("fleet: duration must be positive, got %v", c.Duration)
	}
	if int64(c.Workload.IOPages) > c.Member.Pages {
		return fmt.Errorf("fleet: io_pages %d exceeds member capacity %d pages", c.Workload.IOPages, c.Member.Pages)
	}
	return nil
}

// Stats is the fleet experiment outcome: per-level fault counts, rebuild
// activity, foreground service quality, and availability/durability nines
// computed from the simulated up/degraded/down intervals.
type Stats struct {
	Arrays    int          `json:"arrays"`
	GroupSize int          `json:"group_size"`
	Parity    int          `json:"parity"`
	Members   int          `json:"members"`
	Spares    int          `json:"spares"`
	Duration  sim.Duration `json:"duration_ns"`
	Events    uint64       `json:"events"`

	Cuts            int            `json:"cuts"`
	Restores        int            `json:"restores"`
	CutsByLevel     map[string]int `json:"cuts_by_level,omitempty"`
	RestoresByLevel map[string]int `json:"restores_by_level,omitempty"`

	DeclaredFailures      int64        `json:"declared_failures"`
	TransientRecoveries   int          `json:"transient_recoveries"`
	SpareTakes            int          `json:"spare_takes"`
	SpareShortages        int          `json:"spare_shortages"`
	RebuildWindows        int          `json:"rebuild_windows"`
	RebuildCompleted      int          `json:"rebuilds_completed"`
	RebuildTime           sim.Duration `json:"rebuild_time_ns"`
	MaxConcurrentRebuilds int          `json:"max_concurrent_rebuilds"`
	RebuildReadBytes      int64        `json:"rebuild_read_bytes"`
	RebuildWriteBytes     int64        `json:"rebuild_write_bytes"`

	FgOps             int64        `json:"fg_ops"`
	FgFailed          int64        `json:"fg_failed"`
	FgDegraded        int64        `json:"fg_degraded"`
	FgReadBytes       int64        `json:"fg_read_bytes"`
	FgWriteBytes      int64        `json:"fg_write_bytes"`
	FgMeanLatency     sim.Duration `json:"fg_mean_latency_ns"`
	FgDegradedLatency sim.Duration `json:"fg_degraded_mean_latency_ns"`

	UpTime            sim.Duration `json:"up_time_ns"`
	DegradedTime      sim.Duration `json:"degraded_time_ns"`
	DownTime          sim.Duration `json:"down_time_ns"`
	Availability      float64      `json:"availability"`
	AvailabilityNines float64      `json:"availability_nines"`
	LossEvents        int          `json:"loss_events"`
	BytesLost         int64        `json:"bytes_lost"`
	TotalBytes        int64        `json:"total_bytes"`
	Durability        float64      `json:"durability"`
	DurabilityNines   float64      `json:"durability_nines"`

	fgLatencySum sim.Duration
	fgOKOps      int64
	fgDegLatSum  sim.Duration
	fgDegOKOps   int64
}

// NinesCap bounds reported nines; a run with zero observed downtime is
// reported as the cap rather than +Inf.
const NinesCap = 12.0

// Nines converts a fraction (availability, durability) into "nines":
// 0.999 → 3. Values at or above 1 return NinesCap.
func Nines(x float64) float64 {
	if x >= 1 {
		return NinesCap
	}
	if x < 0 {
		x = 0
	}
	n := -math.Log10(1 - x)
	if n > NinesCap {
		n = NinesCap
	}
	if n <= 0 {
		return 0 // also normalises the -0.0 that -log10(1) produces
	}
	return n
}

// Sim is one fleet experiment instance. It owns its own kernel and RNG so
// campaign items stay independent and deterministic at any parallelism.
type Sim struct {
	cfg Config
	k   *sim.Kernel
	wl  *sim.RNG // workload stream
	fl  *sim.RNG // fault stream

	tree *Tree

	members []*Member
	groups  []*Group
	spares  []*Member

	activeRebuilds int
	end            sim.Time
	stats          Stats
	transitions    int64 // slot state changes, read by the obs registry
	obs            fleetObs

	// Hot-path scratch: target slices reused across arrivals and rebuild
	// chunks.
	scratchR  []*Member
	scratchW  []*Member
	survivors []*Member

	// Fleet-wide free lists of the records, with cached callbacks, that
	// every member IO, foreground op and rebuild chunk runs on; every
	// member's block layer draws from pools. With one set for the whole
	// fleet the next record handed out is the one returned last, still in
	// cache; per-member lists would hand out a record untouched for tens
	// of simulated milliseconds.
	pools  blockdev.Pools
	svcs   pool.FreeList[svcCall]
	ios    pool.FreeList[ioRec]
	fgs    pool.FreeList[fgRec]
	chunks pool.FreeList[chunkRec]

	// tick is the cached controller pass.
	tick func()
}

// fgRec tracks one foreground op's fan-out: a pooled record whose cached
// fn is handed to every per-member submitIO as the completion callback.
type fgRec struct {
	start     sim.Time
	degraded  bool
	remaining int
	anyErr    bool
	fn        func(error)
}

func (f *Sim) getFg(start sim.Time, degraded bool, remaining int) *fgRec {
	rec, fresh := f.fgs.Get()
	if fresh {
		rec.fn = func(err error) {
			if err != nil {
				rec.anyErr = true
			}
			rec.remaining--
			if rec.remaining > 0 {
				return
			}
			start, degraded, anyErr := rec.start, rec.degraded, rec.anyErr
			f.fgs.Put(rec)
			f.fgDone(start, degraded, anyErr)
		}
	}
	rec.start, rec.degraded, rec.remaining, rec.anyErr = start, degraded, remaining, false
	return rec
}

// fgDone closes out one foreground op once every member completion is in.
func (f *Sim) fgDone(start sim.Time, degraded, anyErr bool) {
	if anyErr {
		f.stats.FgFailed++
		return
	}
	lat := f.k.Now().Sub(start)
	f.stats.fgLatencySum += lat
	f.stats.fgOKOps++
	f.obs.fgLat.ObserveDuration(lat)
	if degraded {
		f.stats.FgDegraded++
		f.stats.fgDegLatSum += lat
		f.stats.fgDegOKOps++
		f.obs.fgDegLat.ObserveDuration(lat)
	}
}

// NewSim builds a fleet over its own simulation kernel. Placement is
// rack-local: group g lives in rack g mod Racks with members round-robin
// across that rack's PSU leaves, so a PSU cut degrades at most one bay of a
// group (when the rack has at least GroupSize leaves) while rack and room
// cuts exceed redundancy — the placement-derived correlation the domain
// tree exists to express.
func NewSim(cfg Config, seed uint64) (*Sim, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tree, err := NewTree(cfg.Domains)
	if err != nil {
		return nil, err
	}
	root := sim.NewRNG(seed)
	f := &Sim{
		cfg:  cfg,
		k:    sim.New(),
		wl:   root.Fork("fleet/workload"),
		fl:   root.Fork("fleet/faults"),
		tree: tree,
		end:  sim.Time(0).Add(cfg.Duration),
	}

	leaves := tree.Leaves()
	perRack := cfg.Domains.EnclosuresPerRack * cfg.Domains.PSUsPerEnclosure
	newMemberOn := func(leaf *Node) (*Member, error) {
		m, err := newMember(f, leaf)
		if err != nil {
			return nil, err
		}
		f.members = append(f.members, m)
		return m, nil
	}
	for g := 0; g < cfg.Arrays; g++ {
		rack := g % cfg.Domains.Racks
		base := rack * perRack
		var ms []*Member
		for j := 0; j < cfg.GroupSize; j++ {
			leaf := leaves[base+(g/cfg.Domains.Racks+j)%perRack]
			m, err := newMemberOn(leaf)
			if err != nil {
				return nil, err
			}
			ms = append(ms, m)
		}
		f.groups = append(f.groups, newGroup(f, g, ms))
	}
	for s := 0; s < cfg.Spares; s++ {
		m, err := newMemberOn(leaves[s%len(leaves)])
		if err != nil {
			return nil, err
		}
		f.spares = append(f.spares, m)
	}
	return f, nil
}

// Kernel exposes the simulation clock, mainly for tests.
func (f *Sim) Kernel() *sim.Kernel { return f.k }

// takeSpare removes and returns the first powered, ready spare, or nil.
func (f *Sim) takeSpare() *Member {
	for i, m := range f.spares {
		if m.Ready() {
			f.spares = append(f.spares[:i], f.spares[i+1:]...)
			return m
		}
	}
	return nil
}

// retireToSpares sends a replaced (usually dark) drive to the spare pool;
// it becomes eligible again once it answers the host.
func (f *Sim) retireToSpares(m *Member) {
	m.slot = nil
	f.spares = append(f.spares, m)
}

// scheduleFaults lays the fault plan onto the kernel: either the script
// verbatim, or Count exponentially spaced cuts at the configured level with
// uniformly drawn targets. Config.Validate guarantees every level has
// nodes.
func (f *Sim) scheduleFaults() {
	plan := f.cfg.Faults
	fire := func(at sim.Time, level Level, index int, outage sim.Duration) {
		nodes := f.tree.Nodes(level)
		n := nodes[index%len(nodes)]
		f.k.At(at, func() {
			f.cutNode(n)
			f.k.After(outage, func() { f.restoreNode(n) })
		})
	}
	if len(plan.Script) > 0 {
		for _, ev := range plan.Script {
			fire(ev.At, ev.Level, ev.Index, ev.Outage)
		}
		return
	}
	nodes := f.tree.Nodes(plan.Level)
	if plan.MeanBetween > 0 {
		at := sim.Time(0)
		for i := 0; i < plan.Count; i++ {
			at = at.Add(sim.Duration(f.fl.ExpMean(float64(plan.MeanBetween))))
			fire(at, plan.Level, f.fl.Intn(len(nodes)), plan.Outage)
		}
		return
	}
	// Default spacing: all Count cuts land inside the horizon, placed
	// uniformly with room for the outage to play out.
	span := f.cfg.Duration - plan.Outage
	if span <= 0 {
		span = f.cfg.Duration
	}
	times := make([]sim.Duration, plan.Count)
	for i := range times {
		times[i] = sim.Duration(f.fl.Int63n(int64(span)))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for _, at := range times {
		fire(sim.Time(0).Add(at), plan.Level, f.fl.Intn(len(nodes)), plan.Outage)
	}
}

// cutNode records a cut of n as a trace instant and powers its subtree
// off; the tree counts the cut at n's level.
func (f *Sim) cutNode(n *Node) {
	f.obs.power.Instant(f.k.Now(), obs.KindPower, n.name, 1)
	f.tree.CutNode(n)
}

// restoreNode records the end of one cut of n and counts it at n's level.
func (f *Sim) restoreNode(n *Node) {
	f.obs.power.Instant(f.k.Now(), obs.KindPower, n.name, 0)
	f.tree.RestoreNode(n)
}

// scheduleController starts the periodic controller pass.
func (f *Sim) scheduleController() {
	if f.tick == nil {
		f.tick = func() {
			for _, g := range f.groups {
				for _, s := range g.slots {
					s.controllerTick()
				}
			}
			f.scheduleController()
		}
	}
	f.k.After(f.cfg.Rebuild.ControllerTick, f.tick)
}

// startWorkload launches one open-loop arrival process per group.
func (f *Sim) startWorkload() {
	if f.cfg.Workload.MeanInterarrival < 0 {
		return
	}
	for _, g := range f.groups {
		f.scheduleArrival(g)
	}
}

func (f *Sim) scheduleArrival(g *Group) {
	if g.arrive == nil {
		g.arrive = func() {
			f.issueForeground(g)
			f.scheduleArrival(g)
		}
	}
	d := sim.Duration(f.wl.ExpMean(float64(f.cfg.Workload.MeanInterarrival)))
	f.k.After(d, g.arrive)
}

// issueForeground draws one request against the group and serves it.
func (f *Sim) issueForeground(g *Group) {
	w := f.cfg.Workload
	lpn := int64(0)
	if max := f.cfg.Member.Pages - int64(w.IOPages); max > 0 {
		lpn = f.wl.Int63n(max + 1)
	}
	si := f.wl.Intn(len(g.slots))
	f.serveForeground(g, si, lpn, f.wl.Prob(w.ReadFraction))
}

// serveForeground serves one request on bay si of the group: reads hit
// the bay (or reconstruct from the survivors when it is out), writes hit
// the data bay plus its parity peers. Requests against a down group fail.
func (f *Sim) serveForeground(g *Group, si int, lpn int64, isRead bool) {
	f.stats.FgOps++
	pages := f.cfg.Workload.IOPages
	slot := g.slots[si]
	degraded := g.class != classUp
	start := f.k.Now()

	targetsR := f.scratchR[:0]
	targetsW := f.scratchW[:0]
	need := len(g.slots) - f.cfg.Parity // data shards of the m+k group
	if isRead {
		if slot.state == SlotHealthy {
			targetsR = append(targetsR, slot.member)
		} else {
			// Degraded read: erasure reconstruction needs any m of the
			// other bays (every other bay for the RAID-5-like Parity=1).
			for _, o := range g.slots {
				if o == slot || o.state != SlotHealthy {
					continue
				}
				targetsR = append(targetsR, o.member)
				if len(targetsR) == need {
					break
				}
			}
			if len(targetsR) < need {
				f.stats.FgFailed++
				return
			}
		}
	} else {
		if slot.state == SlotHealthy {
			targetsW = append(targetsW, slot.member)
		}
		for j := 1; j <= f.cfg.Parity; j++ {
			if parity := g.slots[(si+j)%len(g.slots)]; parity.state == SlotHealthy {
				targetsW = append(targetsW, parity.member)
			}
		}
		// A degraded write lands on whichever of the data+parity set is up;
		// the dark bays' copies are reconstructed by the eventual rebuild.
		// (The parity read-modify-write pre-reads are not modelled at fleet
		// scale.)
		if len(targetsW) == 0 {
			f.stats.FgFailed++
			return
		}
	}
	f.scratchR, f.scratchW = targetsR[:0], targetsW[:0]

	rec := f.getFg(start, degraded, len(targetsR)+len(targetsW))
	for _, m := range targetsR {
		m.submitIO(blockdev.OpRead, lpnOf(lpn), pages, false, rec.fn)
	}
	for _, m := range targetsW {
		m.submitIO(blockdev.OpWrite, lpnOf(lpn), pages, false, rec.fn)
	}
}

// Run executes the experiment to its horizon and returns the stats. The
// kernel is told it never runs past f.end, so the member queues arm no
// request timeout that could not fire before it.
func (f *Sim) Run() *Stats {
	f.k.SetHorizon(f.end)
	f.scheduleFaults()
	f.scheduleController()
	f.startWorkload()
	f.k.RunUntil(f.end)
	f.finalize()
	return &f.stats
}

func (f *Sim) finalize() {
	st := &f.stats
	st.Arrays = f.cfg.Arrays
	st.GroupSize = f.cfg.GroupSize
	st.Parity = f.cfg.Parity
	st.Members = len(f.members)
	st.Spares = f.cfg.Spares
	st.Duration = f.cfg.Duration
	st.Events = f.k.Processed()

	for _, l := range Levels() {
		c, r := f.tree.CutsAt(l), f.tree.RestoresAt(l)
		st.Cuts += c
		st.Restores += r
		if c > 0 {
			if st.CutsByLevel == nil {
				st.CutsByLevel = make(map[string]int)
			}
			st.CutsByLevel[l.String()] = c
		}
		if r > 0 {
			if st.RestoresByLevel == nil {
				st.RestoresByLevel = make(map[string]int)
			}
			st.RestoresByLevel[l.String()] = r
		}
	}

	for _, m := range f.members {
		ms := m.Stats()
		st.RebuildReadBytes += ms.RebuildReadPages * 4096
		st.RebuildWriteBytes += ms.RebuildWritePages * 4096
		st.FgReadBytes += ms.ForegroundReadPages * 4096
		st.FgWriteBytes += ms.ForegroundWritePages * 4096
	}

	now := f.k.Now()
	for _, g := range f.groups {
		g.accumulate()
		st.UpTime += g.upTime
		st.DegradedTime += g.degTime
		st.DownTime += g.downTime
		for _, s := range g.slots {
			if s.window {
				// Open vulnerability windows at the horizon still count
				// toward exposure time.
				st.RebuildTime += now.Sub(s.windowStart)
			}
		}
	}
	total := st.UpTime + st.DegradedTime + st.DownTime
	if total > 0 {
		st.Availability = float64(st.UpTime+st.DegradedTime) / float64(total)
	} else {
		st.Availability = 1
	}
	st.AvailabilityNines = Nines(st.Availability)

	st.TotalBytes = int64(f.cfg.Arrays*f.cfg.GroupSize) * f.cfg.Member.Pages * 4096
	if st.TotalBytes > 0 {
		st.Durability = 1 - float64(st.BytesLost)/float64(st.TotalBytes)
	} else {
		st.Durability = 1
	}
	if st.Durability < 0 {
		st.Durability = 0
	}
	st.DurabilityNines = Nines(st.Durability)

	if st.fgOKOps > 0 {
		st.FgMeanLatency = st.fgLatencySum / sim.Duration(st.fgOKOps)
	}
	if st.fgDegOKOps > 0 {
		st.FgDegradedLatency = st.fgDegLatSum / sim.Duration(st.fgDegOKOps)
	}
}

// Run builds and runs a fleet experiment in one call.
func Run(cfg Config, seed uint64) (*Stats, error) {
	f, err := NewSim(cfg, seed)
	if err != nil {
		return nil, err
	}
	return f.Run(), nil
}
