package fleet

import (
	"fmt"

	"powerfail/internal/blockdev"
	"powerfail/internal/obs"
	"powerfail/internal/sim"
)

// SlotState is the rebuild state machine of one redundancy-group member
// bay, following the sejun000/availability exemplar's SSD states: a slot is
// healthy, degraded (member dark, grace window running), rebuilding (onto a
// spare, a resilvered original, or from backup), or failed (declared dead
// with no rebuild target available).
type SlotState int

// Slot states.
const (
	SlotHealthy SlotState = iota
	SlotDegraded
	SlotRebuilding
	SlotFailed
)

// String implements fmt.Stringer.
func (s SlotState) String() string {
	switch s {
	case SlotHealthy:
		return "healthy"
	case SlotDegraded:
		return "degraded"
	case SlotRebuilding:
		return "rebuilding"
	case SlotFailed:
		return "failed"
	default:
		return fmt.Sprintf("SlotState(%d)", int(s))
	}
}

// rebuildMode distinguishes intra-group rebuilds (reconstruct from the
// surviving members) from inter-group restores (re-seed from an off-fleet
// backup after redundancy was exceeded).
type rebuildMode int

const (
	rebuildIntra rebuildMode = iota
	rebuildInter
)

// Slot is one member bay of a group. The bay keeps its identity while the
// physical drive behind it changes (spare swap-in, original resilvered).
type Slot struct {
	g      *Group
	idx    int
	member *Member

	state SlotState
	mode  rebuildMode
	// rebuilt is the durable prefix (in pages) of the bay's reconstruction;
	// pages beyond it hold stale or no data while not SlotHealthy.
	rebuilt int64
	// window marks an open rebuild window (declared failure not yet fully
	// reconstructed); it spans spare waits and stalls, matching the
	// vulnerability interval rather than just the copy time.
	window      bool
	windowStart sim.Time
	stalled     bool
	grace       sim.Timer
	rbGen       uint64 // invalidates in-flight rebuild chunk callbacks
}

// Group is one redundancy group of the fleet: GroupSize member bays in an
// m+k arrangement (any Config.Parity bays reconstructible from the rest;
// the default Parity of 1 is the RAID-5-like m+1 group). The group tracks
// its own up/degraded/down intervals for the availability nines.
type Group struct {
	f     *Sim
	id    int
	slots []*Slot

	// availability accounting
	class      groupClass
	classSince sim.Time
	upTime     sim.Duration
	degTime    sim.Duration
	downTime   sim.Duration

	// arrive is the cached open-loop arrival callback (one per group, not
	// one per arrival).
	arrive func()
}

type groupClass int

const (
	classUp groupClass = iota
	classDegraded
	classDown
)

func newGroup(f *Sim, id int, members []*Member) *Group {
	g := &Group{f: f, id: id}
	for i, m := range members {
		s := &Slot{g: g, idx: i, member: m, state: SlotHealthy, rebuilt: m.prof.Pages}
		g.slots = append(g.slots, s)
		m.slot = s
	}
	return g
}

// unavailable counts bays whose data cannot currently be read directly.
func (g *Group) unavailable() int {
	n := 0
	for _, s := range g.slots {
		if s.state != SlotHealthy {
			n++
		}
	}
	return n
}

// recount reclassifies the group after a slot transition, closing the
// previous up/degraded/down interval. Redundancy is Config.Parity bays:
// with more than that unavailable the group cannot serve reads.
func (g *Group) recount() {
	var c groupClass
	switch u := g.unavailable(); {
	case u == 0:
		c = classUp
	case u <= g.f.cfg.Parity:
		c = classDegraded
	default:
		c = classDown
	}
	if c == g.class {
		return
	}
	g.accumulate()
	g.class = c
}

// accumulate charges the elapsed interval to the current class.
func (g *Group) accumulate() {
	now := g.f.k.Now()
	d := now.Sub(g.classSince)
	switch g.class {
	case classUp:
		g.upTime += d
	case classDegraded:
		g.degTime += d
	default:
		g.downTime += d
	}
	g.classSince = now
}

// memberDown handles the bay's drive losing power.
func (s *Slot) memberDown() {
	switch s.state {
	case SlotHealthy:
		s.setState(SlotDegraded)
		s.g.recount()
		s.grace = s.g.f.k.After(s.g.f.cfg.Rebuild.Delay, func() { s.declare() })
	case SlotRebuilding:
		// The rebuild target went dark mid-copy; the chunk loop errors out
		// and the controller restarts it once the drive answers again.
		s.stall()
	}
}

// memberReady handles the bay's drive answering the host again.
func (s *Slot) memberReady() {
	switch s.state {
	case SlotDegraded:
		// Transient outage: power returned inside the grace window, the
		// bay's data is intact (drives are non-volatile across cuts).
		if s.grace.Pending() {
			s.grace.Stop()
			s.grace = sim.Timer{}
		}
		s.setState(SlotHealthy)
		s.g.recount()
		s.g.f.stats.TransientRecoveries++
	case SlotFailed:
		// No spare ever arrived and the original came back: resilver it.
		// Its pre-cut contents are stale relative to writes served degraded,
		// so it re-enters through a full rebuild.
		s.startRebuild()
	case SlotRebuilding:
		if s.stalled {
			s.startRebuild()
		}
	}
}

// declare fires when the grace window expires with the drive still dark:
// the member is declared failed and rebuild planning starts.
func (s *Slot) declare() {
	if s.state != SlotDegraded {
		return
	}
	s.grace = sim.Timer{}
	f := s.g.f
	f.stats.DeclaredFailures++
	s.rebuilt = 0
	s.openWindow()

	// Count bays with declared (not merely transient) invalid data. If this
	// declaration exceeds the group's Parity-bay redundancy, the un-rebuilt
	// data is gone: charge a loss event and fall back to the backup tier.
	declared := 0
	for _, o := range s.g.slots {
		if o.state == SlotRebuilding || o.state == SlotFailed {
			declared++
		}
	}
	if declared >= f.cfg.Parity { // this bay is the k+1-th declared casualty
		f.stats.LossEvents++
		f.stats.BytesLost += s.member.prof.Pages * 4096
		s.mode = rebuildInter
		// Peers still mid-intra-rebuild can no longer reconstruct either:
		// their un-rebuilt remainder is lost too, and they must restore
		// from backup from here on.
		for _, o := range s.g.slots {
			if o.state == SlotRebuilding && o.mode == rebuildIntra {
				f.stats.BytesLost += (o.member.prof.Pages - o.rebuilt) * 4096
				o.mode = rebuildInter
				o.rbGen++
				o.stalled = true
			}
		}
	} else {
		s.mode = rebuildIntra
	}

	old := s.member
	if spare := f.takeSpare(); spare != nil {
		f.retireToSpares(old)
		s.member = spare
		spare.slot = s
		f.stats.SpareTakes++
		s.startRebuild()
	} else {
		f.stats.SpareShortages++
		s.setState(SlotFailed)
		s.g.recount()
	}
}

// openWindow starts the bay's rebuild-vulnerability window.
func (s *Slot) openWindow() {
	if s.window {
		return
	}
	s.window = true
	s.windowStart = s.g.f.k.Now()
	f := s.g.f
	f.activeRebuilds++
	if f.activeRebuilds > f.stats.MaxConcurrentRebuilds {
		f.stats.MaxConcurrentRebuilds = f.activeRebuilds
	}
	f.stats.RebuildWindows++
	f.obs.active.Set(int64(f.activeRebuilds))
}

// closeWindow ends the window after a completed reconstruction.
func (s *Slot) closeWindow() {
	if !s.window {
		return
	}
	s.window = false
	f := s.g.f
	f.activeRebuilds--
	w := f.k.Now().Sub(s.windowStart)
	f.stats.RebuildTime += w
	f.stats.RebuildCompleted++
	f.obs.active.Set(int64(f.activeRebuilds))
	f.obs.windowHist.ObserveDuration(w)
	if f.obs.sc.TracingOn() {
		f.obs.sc.Span(s.windowStart, w, obs.KindSpan, "rebuild "+s.bayName(), s.rebuilt)
	}
}

// stall pauses the chunk loop; the periodic controller retries it.
func (s *Slot) stall() {
	s.stalled = true
	s.rbGen++
}

// startRebuild (re)enters the chunk loop onto the bay's current member.
func (s *Slot) startRebuild() {
	if !s.member.Ready() {
		s.stall()
		if s.state != SlotRebuilding && s.state != SlotFailed {
			s.setState(SlotFailed)
			s.g.recount()
		}
		return
	}
	if s.state != SlotRebuilding {
		s.setState(SlotRebuilding)
		s.g.recount()
	}
	s.openWindow()
	s.stalled = false
	s.rbGen++
	s.step(s.rbGen)
}

// step copies the next chunk. Intra-group mode reads the chunk from every
// surviving bay (RAID-5 reconstruction) and writes the rebuilt chunk to the
// target; inter-group mode writes chunks seeded from the backup tier, paced
// by the backup link bandwidth. All member IO goes through each drive's
// ordinary block layer, so rebuilds contend with foreground traffic.
func (s *Slot) step(gen uint64) {
	if gen != s.rbGen || s.stalled {
		return
	}
	f := s.g.f
	pages := s.member.prof.Pages
	if s.rebuilt >= pages {
		s.finishRebuild()
		return
	}
	chunk := int64(f.cfg.Rebuild.ChunkPages)
	if rem := pages - s.rebuilt; chunk > rem {
		chunk = rem
	}
	lpn := s.rebuilt

	if s.mode == rebuildInter {
		// One chunk from backup: pace the fetch, then write it out.
		pause := sim.Duration(float64(chunk*4096) / float64(f.cfg.Rebuild.BackupBandwidth) * float64(sim.Second))
		f.k.After(pause, f.getChunk(s, gen, lpn, chunk, 0).onFetch)
		return
	}

	// Intra-group: any m of the other bays suffice to reconstruct (all of
	// them when Parity is 1).
	need := len(s.g.slots) - f.cfg.Parity
	survivors := f.survivors[:0]
	for _, o := range s.g.slots {
		if o == s || o.state != SlotHealthy || !o.member.Ready() {
			continue
		}
		survivors = append(survivors, o.member)
		if len(survivors) == need {
			break
		}
	}
	f.survivors = survivors[:0]
	if len(survivors) < need {
		s.stall()
		return
	}
	c := f.getChunk(s, gen, lpn, chunk, len(survivors))
	for _, m := range survivors {
		m.submitIO(blockdev.OpRead, lpnOf(lpn), int(chunk), true, c.onRead)
	}
}

// chunkRec is one rebuild chunk in flight: the survivor reads (or the
// paced backup fetch) and then the target write, on a pooled record whose
// callbacks are built once. The record returns to the pool before the
// continuation runs, so a chunk allocates nothing in steady state.
type chunkRec struct {
	s         *Slot
	gen       uint64
	lpn       int64
	chunk     int64
	remaining int // survivor reads outstanding
	failed    bool
	onRead    func(error)
	onFetch   func()
	onWrite   func(error)
}

func (f *Sim) getChunk(s *Slot, gen uint64, lpn, chunk int64, reads int) *chunkRec {
	c, fresh := f.chunks.Get()
	if fresh {
		c.onRead = func(err error) {
			if err != nil {
				c.failed = true
			}
			c.remaining--
			if c.remaining == 0 {
				c.fetched()
			}
		}
		c.onFetch = c.fetched
		c.onWrite = func(err error) {
			s, gen, chunk := c.s, c.gen, c.chunk
			f.chunks.Put(c)
			if gen != s.rbGen || s.stalled {
				return
			}
			if err != nil {
				s.stall()
				return
			}
			s.rebuilt += chunk
			s.step(gen)
		}
	}
	c.s, c.gen, c.lpn, c.chunk, c.remaining, c.failed = s, gen, lpn, chunk, reads, false
	return c
}

// fetched writes the chunk to the rebuilding bay once its data is in
// hand: reconstructed from the survivors' reads or fetched from backup.
func (c *chunkRec) fetched() {
	s := c.s
	if c.gen != s.rbGen || s.stalled {
		s.g.f.chunks.Put(c)
		return
	}
	if c.failed {
		s.g.f.chunks.Put(c)
		s.stall()
		return
	}
	s.member.submitIO(blockdev.OpWrite, lpnOf(c.lpn), int(c.chunk), true, c.onWrite)
}

// finishRebuild returns the bay to service.
func (s *Slot) finishRebuild() {
	s.setState(SlotHealthy)
	s.mode = rebuildIntra
	s.g.recount()
	s.closeWindow()
}

// controllerTick is the fleet controller's periodic pass over the bay:
// retry spare allocation for failed bays and restart stalled rebuilds.
func (s *Slot) controllerTick() {
	f := s.g.f
	switch s.state {
	case SlotFailed:
		if s.member.Ready() {
			// Original answered again between ticks; resilver in place.
			s.startRebuild()
			return
		}
		if spare := f.takeSpare(); spare != nil {
			old := s.member
			f.retireToSpares(old)
			s.member = spare
			spare.slot = s
			f.stats.SpareTakes++
			s.startRebuild()
		}
	case SlotRebuilding:
		if s.stalled && s.member.Ready() {
			s.startRebuild()
		}
	}
}
