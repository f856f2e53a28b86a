package fleet

import (
	"errors"
	"fmt"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/sim"
)

// ErrMemberDown is surfaced by a member drive that has no power or is
// still spinning up after a restore.
var ErrMemberDown = errors.New("fleet: member drive down")

// errOutOfRange answers a request beyond the member's capacity.
var errOutOfRange = errors.New("fleet: member address out of range")

// MemberProfile is the lightweight service model of a fleet drive: a
// single-server queue with a fixed per-IO overhead and a page-transfer
// time. The detailed FTL/DRAM models of the single-device platform are too
// heavy at hundreds of arrays; what the fleet layer needs from a member is
// that rebuild and foreground IO genuinely contend for its bandwidth.
type MemberProfile struct {
	// Pages is the drive capacity in 4 KiB pages (default 4096 = 16 MiB,
	// small so rebuild windows stay observable in short experiments).
	Pages int64 `json:"pages"`
	// IOLatency is the fixed per-request overhead (default 150 µs).
	IOLatency sim.Duration `json:"io_latency_ns"`
	// PageTime is the transfer time per 4 KiB page (default 8 µs,
	// ~500 MB/s sequential).
	PageTime sim.Duration `json:"page_time_ns"`
	// ReadyDelay is the spin-up time after power returns (default 1.5 s).
	ReadyDelay sim.Duration `json:"ready_delay_ns"`
}

func (p MemberProfile) withDefaults() MemberProfile {
	if p.Pages == 0 {
		p.Pages = 4096
	}
	if p.IOLatency == 0 {
		p.IOLatency = 150 * sim.Microsecond
	}
	if p.PageTime == 0 {
		p.PageTime = 8 * sim.Microsecond
	}
	if p.ReadyDelay == 0 {
		p.ReadyDelay = 1500 * sim.Millisecond
	}
	return p
}

// Validate checks the profile.
func (p MemberProfile) Validate() error {
	if p.Pages < 0 || p.IOLatency < 0 || p.PageTime < 0 || p.ReadyDelay < 0 {
		return fmt.Errorf("fleet: member profile values must be non-negative: %+v", p)
	}
	return nil
}

// MemberIOStats counts one member drive's served traffic in pages, split
// by origin so rebuild bytes are visible next to foreground bytes.
type MemberIOStats struct {
	ForegroundReadPages  int64 `json:"fg_read_pages"`
	ForegroundWritePages int64 `json:"fg_write_pages"`
	RebuildReadPages     int64 `json:"rebuild_read_pages"`
	RebuildWritePages    int64 `json:"rebuild_write_pages"`
	Errors               int64 `json:"errors"`
}

// Member is one drive bay of the fleet: a lightweight drive implementing
// blockdev.Device, powered by a PSU leaf of the fault-domain tree and
// fronted by its own ordinary blockdev.Queue. Both foreground requests and
// rebuild traffic go through that queue, which is what makes rebuilds
// steal real member bandwidth. Its pooled records come from the Sim's
// fleet-wide free lists.
type Member struct {
	f    *Sim
	k    *sim.Kernel
	prof MemberProfile

	powered  bool
	ready    bool
	nextFree sim.Time
	gen      uint64 // bumped on power loss so stale completions error out

	queue *blockdev.Queue
	stats MemberIOStats
	// slot is the bay the drive serves, nil while it is a spare. It hears
	// of the drive's power transitions directly.
	slot *Slot
}

// svcCall is a pooled service-completion record: one per IO in flight at
// a member's single-server queue, recycled when its event fires. fn is
// created once and reused, so steady-state Submit allocates nothing. A
// set err is the answer itself: the not-ready and out-of-range replies
// ride the same record.
type svcCall struct {
	m     *Member
	op    blockdev.Op
	pages int
	gen   uint64
	err   error
	done  func(err error, result content.Data)
	fn    func()
}

func (m *Member) getSvc(op blockdev.Op, pages int, err error, done func(err error, result content.Data)) *svcCall {
	f := m.f
	c, fresh := f.svcs.Get()
	if fresh {
		c.fn = func() {
			m, op, pages, gen, err, done := c.m, c.op, c.pages, c.gen, c.err, c.done
			c.done = nil
			f.svcs.Put(c)
			m.svcDone(op, pages, gen, err, done)
		}
	}
	c.m, c.op, c.pages, c.gen, c.err, c.done = m, op, pages, m.gen, err, done
	return c
}

// svcDone delivers one service completion (the body of the old per-IO
// closure in Submit).
func (m *Member) svcDone(op blockdev.Op, pages int, gen uint64, err error, done func(err error, result content.Data)) {
	if err != nil {
		done(err, content.Data{})
		return
	}
	if m.gen != gen || !m.ready {
		done(ErrMemberDown, content.Data{})
		return
	}
	if op == blockdev.OpRead {
		done(nil, content.Zeroes(pages))
		return
	}
	done(nil, content.Data{})
}

// ioRec is a pooled submitIO bookkeeping record with a cached Done
// closure, so routing a fleet request through the block layer allocates
// nothing in steady state.
type ioRec struct {
	m       *Member
	op      blockdev.Op
	pages   int
	rebuild bool
	done    func(error)
	fn      func(*blockdev.Request)
}

func (m *Member) getIORec(op blockdev.Op, pages int, rebuild bool, done func(error)) *ioRec {
	f := m.f
	rec, fresh := f.ios.Get()
	if fresh {
		rec.fn = func(req *blockdev.Request) {
			m, op, pages, rebuild, done := rec.m, rec.op, rec.pages, rec.rebuild, rec.done
			rec.done = nil
			f.ios.Put(rec)
			m.ioDone(req, op, pages, rebuild, done)
		}
	}
	rec.m, rec.op, rec.pages, rec.rebuild, rec.done = m, op, pages, rebuild, done
	return rec
}

func (m *Member) ioDone(req *blockdev.Request, op blockdev.Op, pages int, rebuild bool, done func(error)) {
	if req.Err != nil {
		m.stats.Errors++
	} else {
		switch {
		case op == blockdev.OpRead && rebuild:
			m.stats.RebuildReadPages += int64(pages)
		case op == blockdev.OpRead:
			m.stats.ForegroundReadPages += int64(pages)
		case rebuild:
			m.stats.RebuildWritePages += int64(pages)
		default:
			m.stats.ForegroundWritePages += int64(pages)
		}
	}
	done(req.Err)
}

// newMember builds a drive of the fleet on the given PSU leaf and wires
// its power transitions.
func newMember(f *Sim, psu *Node) (*Member, error) {
	m := &Member{f: f, k: f.k, prof: f.cfg.Member, powered: psu.Powered(), ready: psu.Powered()}
	q, err := blockdev.NewWithPools(f.k, m, nil, f.cfg.Host, &f.pools)
	if err != nil {
		return nil, err
	}
	m.queue = q
	psu.OnPower(m.onPower)
	return m, nil
}

// Ready reports whether the drive answers its queue: powered and spun
// up.
func (m *Member) Ready() bool { return m.ready }

// Stats returns a snapshot of the served-IO counters.
func (m *Member) Stats() MemberIOStats { return m.stats }

func (m *Member) onPower(on bool) {
	if on {
		m.powered = true
		gen := m.gen
		m.k.After(m.prof.ReadyDelay, func() {
			if !m.powered || m.gen != gen {
				return // another outage intervened during spin-up
			}
			m.ready = true
			m.nextFree = m.k.Now()
			if m.slot != nil {
				m.slot.memberReady()
			}
		})
		return
	}
	m.powered = false
	wasReady := m.ready
	m.ready = false
	m.gen++ // in-flight service completions observe the stale generation
	if wasReady {
		if m.slot != nil {
			m.slot.memberDown()
		}
	}
}

// Submit implements blockdev.Device: a single-server queue in which each
// request occupies the drive for IOLatency + pages·PageTime after the
// previous request finishes. Requests caught by a power cut complete with
// ErrMemberDown at their scheduled instant, like a died-mid-flight drive.
func (m *Member) Submit(op blockdev.Op, lpn addr.LPN, pages int, data content.Data, done func(err error, result content.Data)) {
	if !m.ready {
		m.k.After(100*sim.Microsecond, m.getSvc(op, pages, ErrMemberDown, done).fn)
		return
	}
	if op != blockdev.OpFlush && (lpn < 0 || int64(lpn)+int64(pages) > m.prof.Pages) {
		m.k.After(100*sim.Microsecond, m.getSvc(op, pages, errOutOfRange, done).fn)
		return
	}
	start := m.k.Now()
	if m.nextFree > start {
		start = m.nextFree
	}
	finish := start.Add(m.prof.IOLatency + sim.Duration(pages)*m.prof.PageTime)
	m.nextFree = finish
	m.k.At(finish, m.getSvc(op, pages, nil, done).fn)
}

// submitIO routes one fleet request (foreground or rebuild) through the
// member's block layer, keeping the origin-split counters; done fires with
// the request's final error.
func (m *Member) submitIO(op blockdev.Op, lpn addr.LPN, pages int, rebuild bool, done func(error)) {
	req := m.queue.NewRequest()
	req.Op = op
	req.LPN = lpn
	req.Pages = pages
	if op == blockdev.OpWrite {
		req.Data = content.Zeroes(pages)
	}
	req.Done = m.getIORec(op, pages, rebuild, done).fn
	m.queue.Submit(req)
}
