package core

import (
	"fmt"

	"powerfail/internal/array"
	"powerfail/internal/blktrace"
	"powerfail/internal/blockdev"
	"powerfail/internal/fleet"
	"powerfail/internal/hdd"
	"powerfail/internal/obs"
	"powerfail/internal/power"
	"powerfail/internal/sim"
	"powerfail/internal/ssd"
	"powerfail/internal/txn"
)

// AppConfig selects the application layer that drives the platform instead
// of the raw workload generator. The zero value runs no application: the
// paper's plain IO generator issues the requests.
type AppConfig struct {
	// Txn, when non-nil, runs the write-ahead-log transaction engine on
	// top of the device and the crash-consistency oracle after every
	// fault. The experiment's Workload is ignored (the engine generates
	// its own IO); open-loop pacing (Workload.IOPS) is not supported.
	Txn *txn.Config
}

// Enabled reports whether any application layer is configured.
func (a AppConfig) Enabled() bool { return a.Txn != nil }

// TopologyKind selects what hangs behind the block layer.
type TopologyKind int

// Device topologies. The zero value keeps the platform's historical shape:
// one SSD under test.
const (
	TopoSSD TopologyKind = iota
	TopoHDD
	TopoArray
)

// String implements fmt.Stringer.
func (k TopologyKind) String() string {
	switch k {
	case TopoSSD:
		return "ssd"
	case TopoHDD:
		return "hdd"
	case TopoArray:
		return "array"
	default:
		return fmt.Sprintf("TopologyKind(%d)", int(k))
	}
}

// Topology describes the device side of the platform: a single SSD
// (Options.Profile), a single HDD, or a composite array whose members all
// share the platform's one simulated PSU — so a power fault is correlated
// across every member, as in the paper's rig.
type Topology struct {
	Kind TopologyKind
	// HDD configures the single-HDD topology; the zero value selects
	// hdd.DefaultProfile().
	HDD hdd.Profile
	// Array configures the multi-device topology (RAID-0/1/5 or
	// SSD-cache-over-HDD).
	Array array.Config
}

// Options configures a Platform instance.
type Options struct {
	// Seed drives every random stream; identical (Seed, spec) pairs
	// reproduce identical reports.
	Seed uint64
	// Profile is the drive under test for the single-SSD topology; zero
	// value selects SSD A.
	Profile ssd.Profile
	// Topology selects the device side (single SSD by default).
	Topology Topology
	// App selects an optional application layer above the block device
	// (transactional WAL engine + crash-consistency oracle).
	App AppConfig
	// Fleet, when non-nil, replaces the single-device platform with a
	// datacenter fleet: a fault-domain tree of rooms, racks, enclosures and
	// PSUs with N redundancy groups, standby spares and rebuild state
	// machines on top. Profile/Topology/App/Workload are ignored; the fleet
	// generates its own foreground IO and fault plan.
	Fleet *fleet.Config
	// Host overrides the block-layer configuration.
	Host blockdev.Config
	// PSU overrides the supply's electrical model.
	PSU power.Config
	// Concurrency is the closed-loop outstanding-request budget
	// (default 1: a synchronous IO thread, as in the paper's generator).
	// It also sizes the post-fault control-read pipeline: up to this many
	// verification/recovery reads stay in flight at once, so values above
	// 1 shorten fault cycles on multi-channel devices.
	Concurrency int
	// Obs enables the observability layer (sim-time metrics registry and
	// typed trace events) for this run. Nil — the default — disables it
	// entirely: reports are byte-identical to builds without the layer,
	// and the instrumented paths cost one nil check each.
	Obs *obs.Config
}

func (o Options) withDefaults() Options {
	if o.Profile.Name == "" {
		o.Profile = ssd.ProfileA()
	}
	if o.Topology.Kind == TopoHDD && o.Topology.HDD.Name == "" {
		o.Topology.HDD = hdd.DefaultProfile()
	}
	if o.Host == (blockdev.Config{}) {
		o.Host = blockdev.DefaultConfig()
	}
	if o.PSU == (power.Config{}) {
		o.PSU = power.DefaultConfig()
	}
	if o.Concurrency == 0 {
		o.Concurrency = 1
	}
	return o
}

// Platform wires the hardware part (PSU, ATX, Arduino) to the device under
// test and the software part (scheduler, IO generator, analyzer) exactly
// as in Fig. 1 of the paper. Dev is whatever the Topology selected; the
// typed fields below it expose the concrete device(s) for stats and tests
// (nil for the topologies that do not use them).
type Platform struct {
	Opts Options

	K       *sim.Kernel
	RNG     *sim.RNG
	PSU     *power.PSU
	ATX     *power.ATX
	Arduino *power.Arduino
	Dev     blockdev.Drive
	SSD     *ssd.Device  // single-SSD topology
	HDD     *hdd.Disk    // single-HDD topology
	Array   *array.Array // array topology
	Host    *blockdev.Queue
	// Tracer is nil after NewPlatform: the host queue keeps the blkio
	// spans itself (Queue.RecordSpans). Code that rebuilds Host over a
	// wrapped device passes it on to blockdev.New.
	Tracer *blktrace.Tracer
	Sched  *FaultScheduler
	Obs    *obs.Set // nil unless Options.Obs enabled something
}

// NewPlatform builds and wires a complete test platform.
func NewPlatform(opts Options) (*Platform, error) {
	opts = opts.withDefaults()
	k := sim.New()
	root := sim.NewRNG(opts.Seed)

	psu, err := power.New(k, opts.PSU)
	if err != nil {
		return nil, fmt.Errorf("core: psu: %w", err)
	}
	atx := power.NewATX(psu)
	ard := power.NewArduino(k, atx.SetPin16)

	p := &Platform{
		Opts:    opts,
		K:       k,
		RNG:     root,
		PSU:     psu,
		ATX:     atx,
		Arduino: ard,
		Sched:   nil,
	}
	if opts.Obs != nil {
		p.Obs = obs.NewSet(*opts.Obs)
	}
	switch opts.Topology.Kind {
	case TopoSSD:
		dev, err := ssd.New(k, root.Fork("ssd"), opts.Profile, psu)
		if err != nil {
			return nil, fmt.Errorf("core: device: %w", err)
		}
		p.SSD, p.Dev = dev, dev
	case TopoHDD:
		disk, err := hdd.New(k, root.Fork("hdd"), opts.Topology.HDD, psu)
		if err != nil {
			return nil, fmt.Errorf("core: device: %w", err)
		}
		p.HDD, p.Dev = disk, disk
	case TopoArray:
		arr, err := array.New(k, root, opts.Topology.Array, psu)
		if err != nil {
			return nil, fmt.Errorf("core: device: %w", err)
		}
		arr.Observe(p.Obs.Scope("array"))
		p.Array, p.Dev = arr, arr
	default:
		return nil, fmt.Errorf("core: unknown topology kind %d", int(opts.Topology.Kind))
	}

	host, err := blockdev.New(k, p.Dev, nil, opts.Host)
	if err != nil {
		return nil, fmt.Errorf("core: host: %w", err)
	}
	p.Host = host
	host.Observe(p.Obs.Scope("blockdev"))
	p.Sched = NewFaultScheduler(k, ard)
	p.Sched.Instrument(p.Obs.Scope("power"))
	return p, nil
}

// ObsScope returns an observability scope for comp, disabled (zero)
// when the platform runs without observability.
func (p *Platform) ObsScope(comp string) obs.Scope { return p.Obs.Scope(comp) }

// FaultScheduler is the paper's Scheduler component: it decides fault
// instants and sends On/Off commands straight to the microcontroller,
// whose pin 13 drives the PSU's PS_ON#.
type FaultScheduler struct {
	k        *sim.Kernel
	ard      *power.Arduino
	cuts     int64
	restores int64

	sc obs.Scope
}

// NewFaultScheduler wires a scheduler to the Arduino, the paper's rig.
func NewFaultScheduler(k *sim.Kernel, ard *power.Arduino) *FaultScheduler {
	return &FaultScheduler{k: k, ard: ard}
}

// Cut commands the hardware to drop PS_ON#, starting the PSU discharge.
func (s *FaultScheduler) Cut() {
	s.cuts++
	s.sc.Instant(s.k.Now(), obs.KindPower, "psu", 1)
	s.send(power.CmdCut)
}

// Restore commands the hardware to re-assert PS_ON#.
func (s *FaultScheduler) Restore() {
	s.restores++
	s.sc.Instant(s.k.Now(), obs.KindPower, "psu", 0)
	s.send(power.CmdRestore)
}

func (s *FaultScheduler) send(cmd byte) {
	if err := s.ard.Send(cmd); err != nil {
		panic(err)
	}
}

// Cuts returns the number of Cut commands sent.
func (s *FaultScheduler) Cuts() int { return int(s.cuts) }

// Restores returns the number of Restore commands sent.
func (s *FaultScheduler) Restores() int { return int(s.restores) }

// Instrument records every cut/restore command into sc as a KindPower
// trace event and exports the two counts as counters. A disabled scope
// is a no-op.
func (s *FaultScheduler) Instrument(sc obs.Scope) {
	s.sc = sc
	sc.Count("cuts", &s.cuts)
	sc.Count("restores", &s.restores)
}
