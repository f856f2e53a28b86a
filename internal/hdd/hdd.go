// Package hdd models a conventional hard disk drive as a comparator for
// the SSDs under test. The paper's platform drives "the under test SSDs
// (or HDDs)" from the same PSU; an HDD makes a useful baseline because its
// write path is mechanical and write-through (no multi-millisecond ISPP,
// no volatile cache or mapping table), so power faults produce a very
// different failure profile: a cut tears the sector under the head,
// errors every command the drive has accepted and not yet answered, and
// disturbs nothing previously acknowledged.
//
// The model implements blockdev.Device, so the whole platform — block
// layer, tracer, analyzer — runs unchanged against it. Like the SSD it
// allocates nothing per command in steady state: commands are pooled
// records with a timer callback bound once, and a read lends its result
// from its record's buffer on the terms of blockdev.Device.
package hdd

import (
	"errors"
	"fmt"
	"slices"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/pool"
	"powerfail/internal/power"
	"powerfail/internal/sim"
)

// Profile describes the drive's mechanics.
type Profile struct {
	Name       string
	CapacityGB int
	// RPM sets the rotational latency (half a revolution on average).
	RPM int
	// AvgSeek is the average seek time.
	AvgSeek sim.Duration
	// MediaBytesPerSec is the sustained transfer rate at the platter.
	MediaBytesPerSec float64
	// BrownoutVolts drops the host link, as for the SSDs.
	BrownoutVolts float64
	LoadOhms      float64
	// FailFast is how long the drive takes to answer a command it cannot
	// serve: one submitted while it is off the bus or out of range, a
	// flush, and every command a cut interrupts.
	FailFast     sim.Duration
	RecoveryTime sim.Duration
}

// DefaultProfile is a 7200 RPM desktop drive.
func DefaultProfile() Profile {
	return Profile{
		Name:             "HDD",
		CapacityGB:       500,
		RPM:              7200,
		AvgSeek:          8 * sim.Millisecond,
		MediaBytesPerSec: 150e6,
		BrownoutVolts:    4.5,
		LoadOhms:         30,
		FailFast:         500 * sim.Microsecond,
		RecoveryTime:     2 * sim.Second, // spin-up
	}
}

// Validate checks the profile.
func (p Profile) Validate() error {
	if p.CapacityGB <= 0 || p.RPM <= 0 || p.MediaBytesPerSec <= 0 {
		return fmt.Errorf("hdd: bad profile %+v", p)
	}
	return nil
}

// UserPages returns the exported capacity in 4 KiB pages.
func (p Profile) UserPages() int64 { return int64(p.CapacityGB) << 30 >> addr.PageShift }

func (p Profile) rotHalf() sim.Duration {
	return sim.Duration(30.0 / float64(p.RPM) * 1e9) // half a revolution
}

// ErrUnavailable mirrors the SSD error for a drive below brownout.
var ErrUnavailable = errors.New("hdd: device unavailable")

var errOutOfRange = errors.New("hdd: out of range")

// Stats counts drive activity.
type Stats struct {
	Reads       int64
	Writes      int64
	Errors      int64
	TornSectors int64
	Deaths      int64
	Recoveries  int64
}

// Disk is the drive. Sector contents are fingerprints, like the SSD model.
type Disk struct {
	k    *sim.Kernel
	r    *sim.RNG
	prof Profile

	media map[addr.LPN]content.Fingerprint

	available bool
	busyUntil sim.Time
	spinup    sim.Timer // pending recovery; cancelled by a new power loss
	// jobs holds every accepted command not yet answered, in submission
	// order, so a cut can tear the write under the head and error the rest.
	jobs    []*job
	jobPool pool.FreeList[job]
	stats   Stats

	readyListeners []func()
	downListeners  []func()
}

// job is one command. Reads and writes occupy the head from startAt for
// perPage per page; a flush has nothing to do on a write-through drive
// and is answered after FailFast, as is a command refused with err. The
// record is pooled: fire is bound to it once, and buf keeps its capacity
// across reuses.
type job struct {
	op      blockdev.Op
	lpn     addr.LPN
	pages   int
	data    content.Data
	err     error
	startAt sim.Time
	perPage sim.Duration
	done    func(error, content.Data)
	timer   sim.Timer
	buf     []content.Fingerprint // a read's result, lent to done
	fire    func()
}

// New attaches a disk to the PSU rail.
func New(k *sim.Kernel, r *sim.RNG, prof Profile, psu *power.PSU) (*Disk, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	d := &Disk{
		k:         k,
		r:         r,
		prof:      prof,
		media:     make(map[addr.LPN]content.Fingerprint),
		available: true,
	}
	if psu != nil {
		psu.Connect(prof.LoadOhms)
		psu.NotifyBelow(prof.BrownoutVolts, d.onPowerLoss)
		psu.NotifyAbove(prof.BrownoutVolts+0.25, d.onPowerGood)
	}
	return d, nil
}

// Profile returns the drive profile.
func (d *Disk) Profile() Profile { return d.prof }

// Name implements blockdev.Drive.
func (d *Disk) Name() string { return d.prof.Name }

// UserPages implements blockdev.Drive.
func (d *Disk) UserPages() int64 { return d.prof.UserPages() }

// Stats returns the counters.
func (d *Disk) Stats() Stats { return d.stats }

// Ready implements blockdev.Drive.
func (d *Disk) Ready() bool { return d.available }

// NotifyReady registers fn to run every time the drive finishes spin-up
// after a power loss.
func (d *Disk) NotifyReady(fn func()) { d.readyListeners = append(d.readyListeners, fn) }

// NotifyDown registers fn to run every time the drive drops off the bus.
func (d *Disk) NotifyDown(fn func()) { d.downListeners = append(d.downListeners, fn) }

// Submit implements blockdev.Device.
func (d *Disk) Submit(op blockdev.Op, lpn addr.LPN, pages int, data content.Data, done func(err error, result content.Data)) {
	j, fresh := d.jobPool.Get()
	if fresh {
		j.fire = func() { d.finish(j) }
	}
	j.op, j.lpn, j.pages, j.data, j.done = op, lpn, pages, data, done
	switch {
	case !d.available:
		j.err = ErrUnavailable
	case lpn < 0 || int64(lpn)+int64(pages) > d.prof.UserPages():
		j.err = errOutOfRange
	}
	if j.err != nil {
		d.stats.Errors++
		d.k.After(d.prof.FailFast, j.fire)
		return
	}
	at := d.k.Now().Add(d.prof.FailFast)
	if op != blockdev.OpFlush {
		xfer := sim.Duration(float64(pages*addr.PageBytes) / d.prof.MediaBytesPerSec * 1e9)
		j.startAt = max(d.k.Now(), d.busyUntil).Add(d.prof.AvgSeek + d.prof.rotHalf())
		j.perPage = xfer / sim.Duration(pages)
		d.busyUntil = j.startAt.Add(xfer)
		at = d.busyUntil
	}
	d.jobs = append(d.jobs, j)
	j.timer = d.k.At(at, j.fire)
}

// finish answers a job at its completion instant: a refused command with
// its error; one the drive served to the end with an ACK, after a write
// commits its sectors and a read lends the platter's contents. The job
// is recycled once done returns.
func (d *Disk) finish(j *job) {
	var result content.Data
	if j.err == nil {
		at := slices.Index(d.jobs, j)
		d.jobs = slices.Delete(d.jobs, at, at+1)
		switch j.op {
		case blockdev.OpRead:
			d.stats.Reads++
			j.buf = slices.Grow(j.buf[:0], j.pages)[:j.pages]
			for i := range j.buf {
				j.buf[i] = d.media[j.lpn+addr.LPN(i)]
			}
			result = content.Wrap(j.buf)
		case blockdev.OpWrite:
			for i := 0; i < j.pages; i++ {
				d.media[j.lpn+addr.LPN(i)] = j.data.Page(i)
			}
			d.stats.Writes++
		}
	}
	j.done(j.err, result)
	d.recycle(j)
}

// recycle returns a job to the pool, dropping the caller's payload and
// callback so the pool keeps neither alive.
func (d *Disk) recycle(j *job) {
	j.data, j.done, j.err = content.Data{}, nil, nil
	d.jobPool.Put(j)
}

// onPowerLoss models the cut: the write under the head keeps the sectors
// it has passed and tears the one under the head; every accepted command
// loses its completion and errors once the host notices the link drop;
// the drive stays off the bus until power and spin-up return.
func (d *Disk) onPowerLoss() {
	// A cut during spin-up aborts the recovery; the drive stays off the
	// bus until the next power-good restarts it.
	if d.spinup.Pending() {
		d.spinup.Stop()
		d.spinup = sim.Timer{}
	}
	if !d.available {
		return
	}
	d.available = false
	d.stats.Deaths++
	for _, fn := range d.downListeners {
		fn()
	}
	now := d.k.Now()
	lost := d.jobs
	d.jobs = nil
	for _, j := range lost {
		j.timer.Stop()
		if j.op != blockdev.OpWrite || j.startAt > now || j.perPage <= 0 {
			continue
		}
		passed := int(now.Sub(j.startAt) / j.perPage)
		for i := 0; i < passed && i < j.pages; i++ {
			d.media[j.lpn+addr.LPN(i)] = j.data.Page(i)
		}
		if passed < j.pages {
			// The sector under the head is torn: unreadable garbage.
			d.media[j.lpn+addr.LPN(passed)] = content.Mix(j.data.Page(passed), d.r.Uint64())
			d.stats.TornSectors++
		}
	}
	d.busyUntil = 0
	if len(lost) > 0 {
		d.stats.Errors += int64(len(lost))
		d.k.After(d.prof.FailFast, func() {
			for _, j := range lost {
				j.done(ErrUnavailable, content.Data{})
				d.recycle(j)
			}
		})
	}
}

func (d *Disk) onPowerGood() {
	if d.available || d.spinup.Pending() {
		return
	}
	d.spinup = d.k.After(d.prof.RecoveryTime, func() {
		d.spinup = sim.Timer{}
		d.available = true
		d.stats.Recoveries++
		for _, fn := range d.readyListeners {
			fn()
		}
	})
}
