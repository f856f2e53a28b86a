package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"powerfail"
	"powerfail/internal/fleet"
)

// workload is one named benchmark input: how to build the options and
// spec of an experiment from its seed, and how many fault cycles every
// experiment must complete.
type workload struct {
	name string
	why  string
	// faults is the number of fault cycles (PSU cuts for the fleet) each
	// experiment must complete.
	faults int
	opts   powerfail.Options
	spec   powerfail.Experiment
}

// workloadNames lists the workloads in the order the documentation
// gives them.
var workloadNames = []string{"paper-write", "raid5-mixed-obs", "fleet"}

// newWorkload returns the named workload. tiny shrinks every dimension so
// the benchmark's own tests can run each workload in well under a second;
// the benchmark itself always runs the full size.
func newWorkload(name string, tiny bool) (*workload, error) {
	switch name {
	case "paper-write":
		// The paper's base workload on the figures' drive: stock Profile A
		// at its full 256 GB, uniform random 4 KiB-1 MiB writes over a
		// 16 GB working set, 16 requests per fault, one outstanding
		// request, observability off.
		w := &workload{
			name:   name,
			why:    "the Fig. 5/6/7/9 shape: one 256 GB drive under the base write workload, so the SSD device stack does most of the work",
			faults: 5,
			opts:   powerfail.Options{Profile: powerfail.ProfileA()},
			spec: powerfail.Experiment{
				Name:             name,
				Workload:         powerfail.DefaultWorkload(),
				RequestsPerFault: 16,
			},
		}
		if tiny {
			w.opts.Profile.CapacityGB = 8
			w.spec.Workload.WSSBytes = 1 << 30
			w.faults = 1
		}
		w.spec.Faults = w.faults
		return w, nil
	case "raid5-mixed-obs":
		// RAID-5 over four 8 GB Profile A members: parity RMW, degraded
		// reads, stripe locks and the DRAM-cache read path, with full
		// observability on so its cost is gated.
		member := powerfail.ProfileA()
		member.CapacityGB = 8
		obsCfg := powerfail.DefaultObsConfig()
		wl := powerfail.DefaultWorkload()
		wl.MinSize, wl.MaxSize = 4<<10, 64<<10
		wl.ReadPct = 50
		wl.WSSBytes = 2 << 30
		w := &workload{
			name:   name,
			why:    "the only workload with parity RMW, reconstruction, stripe locks, cache and degraded reads, and observability on",
			faults: 5,
			opts: powerfail.Options{
				Topology:    powerfail.ArrayTopology(powerfail.RAIDConfig(powerfail.RAID5, 4, member)),
				Concurrency: 4,
				Obs:         &obsCfg,
			},
			spec: powerfail.Experiment{Name: name, Workload: wl, RequestsPerFault: 12},
		}
		if tiny {
			w.faults = 1
		}
		w.spec.Faults = w.faults
		return w, nil
	case "fleet":
		// The BenchmarkFleetCampaign shape: 100 single-parity groups plus
		// 8 spares on a 4x2x2 fault-domain tree, 2048-page members, 5
		// random PSU cuts. No SSD device model runs here.
		cfg := powerfail.DefaultFleetConfig()
		cfg.Domains = powerfail.FleetDomains{Racks: 4, EnclosuresPerRack: 2, PSUsPerEnclosure: 2}
		cfg.Arrays = 100
		cfg.Spares = 8
		cfg.Member.Pages = 2048
		cfg.Faults.Count = 5
		if tiny {
			cfg.Arrays = 8
			cfg.Member.Pages = 256
			cfg.Faults.Count = 2
		}
		return &workload{
			name:   name,
			why:    "a datacenter fleet that runs no SSD device model, so kernel, blockdev and fleet changes show and device-stack changes must not",
			faults: cfg.Faults.Count,
			opts:   powerfail.Options{Fleet: &cfg},
			spec:   powerfail.Experiment{Name: name},
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// isFleet reports whether the workload runs the fleet path, which has no
// platform, runner or host queue to instrument.
func (w *workload) isFleet() bool { return w.opts.Fleet != nil }

// expSeed derives experiment i's seed from the run's base seed.
func expSeed(base uint64, i int) uint64 { return base<<20 + uint64(i) + 1 }

// variant selects how an experiment deviates from the workload as
// defined: with observability switched off, or with the timing shim
// installed in front of the device.
type variant struct {
	obsOff bool
	shim   *spanShim
}

// result is one experiment's outcome and its host-side cost.
type result struct {
	rep *powerfail.Report
	err error
	// plat is the finished platform (nil for the fleet).
	plat *powerfail.Platform
	// setup is NewPlatform+NewRunner (zero for the fleet, whose set-up is
	// sampled separately by fleetSetup); run is Runner.Run; total is the
	// whole experiment, set-up included.
	setup, run, total time.Duration
	// mallocs and bytes are the heap allocations made during total.
	mallocs, bytes uint64
}

// experiment runs one experiment of w with the given seed.
func (w *workload) experiment(seed uint64, v variant) result {
	opts := w.opts
	opts.Seed = seed
	if v.obsOff {
		opts.Obs = nil
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var res result
	if w.isFleet() {
		t0 := time.Now()
		res.rep, res.err = powerfail.Run(opts, w.spec)
		res.total = time.Since(t0)
	} else {
		res = w.deviceExperiment(opts, v.shim)
	}
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.bytes = m1.TotalAlloc - m0.TotalAlloc
	return res
}

// deviceExperiment is powerfail.Run split at the set-up boundary, with
// the timing shim optionally installed between the two halves.
func (w *workload) deviceExperiment(opts powerfail.Options, shim *spanShim) result {
	var res result
	t0 := time.Now()
	p, err := powerfail.NewPlatform(opts)
	if err != nil {
		res.err = err
		return res
	}
	if shim != nil {
		if err := shim.install(p); err != nil {
			res.err = err
			return res
		}
	}
	r, err := powerfail.NewRunner(p, w.spec)
	if err != nil {
		res.err = err
		return res
	}
	t1 := time.Now()
	res.rep, res.err = r.Run(context.Background())
	t2 := time.Now()
	res.plat = p
	res.setup, res.run, res.total = t1.Sub(t0), t2.Sub(t1), t2.Sub(t0)
	return res
}

// fleetSetup times building the fleet simulation that the experiment
// with this seed runs, and returns it unrun.
func (w *workload) fleetSetup(seed uint64) (*fleet.Sim, time.Duration, error) {
	t0 := time.Now()
	f, err := fleet.NewSim(*w.opts.Fleet, seed)
	return f, time.Since(t0), err
}
