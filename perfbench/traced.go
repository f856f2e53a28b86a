package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"powerfail"
	"powerfail/internal/ssd"
)

// phase collects one variant's experiments of a traced run. It keeps each
// report's bytes (also without the obs section) for comparison with the
// other variants, and the host time and simulated counts of the
// experiments that passed.
type phase struct {
	label      string
	v          variant
	ok         []bool
	js, noObs  [][]byte
	counts     map[string]float64
	faults     float64
	total, run time.Duration
}

func newPhase(label string, v variant) *phase {
	return &phase{label: label, v: v, counts: map[string]float64{}}
}

// runOne runs experiment i with the phase's variant and records it.
func (ph *phase) runOne(o *outcome, w *workload, seed uint64, i int) error {
	res := w.experiment(seed, ph.v)
	ok := o.check(fmt.Sprintf("%s experiment %d", ph.label, i), checkReport(res.rep, res.err, w.faults))
	var js, noObs []byte
	if ok {
		var err error
		if js, err = reportJSON(res.rep); err != nil {
			return err
		}
		if noObs, err = withoutObs(res.rep); err != nil {
			return err
		}
		ph.total += res.total
		ph.run += res.run
		ph.faults += float64(res.rep.Faults)
		addCounts(ph.counts, res.rep, res.plat)
	}
	ph.ok = append(ph.ok, ok)
	ph.js = append(ph.js, js)
	ph.noObs = append(ph.noObs, noObs)
	return nil
}

// compare fails every experiment of got whose report differs from the
// same experiment's in want (want's obs-free form when noObs is set).
func compare(o *outcome, want, got *phase, noObs bool) {
	for i := range got.ok {
		if !want.ok[i] || !got.ok[i] {
			continue
		}
		w := want.js[i]
		if noObs {
			w = want.noObs[i]
		}
		o.verify(fmt.Sprintf("%s experiment %d", got.label, i), sameReport(w, got.js[i]))
	}
}

// The CPU profile label that marks samples taken while a shimmed
// experiment ran.
const labelKey, labelTraced = "perfbench", "traced"

// perLayer is the traced run. After a warm-up, each experiment runs
// untraced, then behind the timing shim, then (where the workload has
// observability on) with observability off, so that host-speed drift
// cancels out of the ratios between them. Every report must match the
// untraced one. The CPU profiler runs throughout; only the samples of
// the shimmed experiments are attributed to layers. The layer probes run
// last.
func (b *bench) perLayer() (*outcome, error) {
	w := b.w
	o := &outcome{}
	if _, _, _, err := b.warmUp(o); err != nil {
		return o, err
	}
	shim := &spanShim{}
	base := newPhase("untraced", variant{})
	traced := newPhase("traced", variant{shim: shim})
	phases := []*phase{base, traced}
	var obsOff *phase
	if w.opts.Obs != nil {
		obsOff = newPhase("obs-off", variant{obsOff: true})
		phases = append(phases, obsOff)
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return o, err
	}
	start := time.Now()
	var err error
	for i := 0; err == nil && time.Since(start) < hardStop && (i < 2 || time.Since(start) < b.budget*7/10); i++ {
		seed := expSeed(b.seed, i)
		for _, ph := range phases {
			if ph == traced {
				pprof.Do(context.Background(), pprof.Labels(labelKey, labelTraced), func(context.Context) {
					err = ph.runOne(o, w, seed, i)
				})
			} else {
				err = ph.runOne(o, w, seed, i)
			}
			if err != nil {
				break
			}
		}
	}
	pprof.StopCPUProfile()
	if err != nil {
		return o, err
	}
	compare(o, base, traced, false)
	if traced.faults == 0 || base.total == 0 {
		return o, fmt.Errorf("no traced experiment passed")
	}

	perCall := func(st spanStat) float64 {
		if st.calls == 0 {
			return 0
		}
		return float64(st.self) / float64(time.Microsecond) / float64(st.calls)
	}
	o.add("dev.submit_us", "us", perCall(shim.submit))
	o.add("dev.submit_calls_per_fault", "1/fault", float64(shim.submit.calls)/traced.faults)
	o.add("dev.complete_us", "us", perCall(shim.complete))
	o.add("dev.complete_calls_per_fault", "1/fault", float64(shim.complete.calls)/traced.faults)
	other := 0.0
	if traced.run > 0 {
		other = 1 - float64(shim.submit.self+shim.complete.self)/float64(traced.run)
	}
	o.add("run.other_share", "ratio", other)
	o.add("trace.overhead_ratio", "ratio", float64(traced.total)/float64(base.total))

	share, gc, unattributed, err := cpuShares(prof.Bytes(), labelKey, labelTraced)
	if err != nil {
		return o, err
	}
	for _, l := range layers {
		o.add("cpu_share."+l, "ratio", share[l])
	}
	o.add("cpu_share.unattributed", "ratio", unattributed)
	o.add("gc_cpu_share", "ratio", gc)

	c := traced.counts
	for _, name := range countMetrics {
		o.add(name, "1/fault", c[name]/traced.faults)
	}
	o.add("dram.hit_ratio", "ratio", ratio(c["dram.hits"], c["dram.hits"]+c["dram.misses"]))
	o.add("ftl.wasted_ratio", "ratio", ratio(c["ftl.wasted_pages"], c["ftl.writes_mapped"]))

	obsRatio := 0.0
	if obsOff != nil {
		compare(o, base, obsOff, true)
		obsRatio = ratio(float64(base.total), float64(obsOff.total))
	}
	o.add("obs.overhead_ratio", "ratio", obsRatio)

	pr, err := runProbes(b.probeTime)
	if err != nil {
		return o, err
	}
	for _, p := range pr {
		o.add("probe."+p.name+".ns_op", "ns/op", p.nsPerOp)
		o.add("probe."+p.name+".allocs_op", "allocs/op", p.allocsOp)
	}
	o.note("experiments: %d per variant (%d variants), %d fault cycles each; CPU profile: %d bytes",
		len(base.ok), len(phases), w.faults, prof.Len())
	return o, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// countMetrics are the exact simulated counts reported per fault cycle.
var countMetrics = []string{
	"sim.events_per_fault",
	"blockdev.submitted", "blockdev.splits", "blockdev.errored", "blockdev.timed_out",
	"dram.evictions", "dram.dropped_dirty",
	"ftl.writes_mapped", "ftl.commits", "ftl.gc_collections", "ftl.lost_mappings",
	"flash.programs", "flash.partial_programs", "flash.pair_corruptions",
	"ssd.cache_stalls", "ssd.dirty_pages_lost",
	"array.parity_rmws", "array.write_holes", "array.reconstructions",
	"core.data_failures", "core.fwa", "core.io_errors",
}

// addCounts adds one experiment's simulated counts, read from its report
// and from the Stats of its platform's drives, into c.
func addCounts(c map[string]float64, rep *powerfail.Report, p *powerfail.Platform) {
	c["sim.events_per_fault"] += float64(rep.Events)
	h := rep.HostStats
	c["blockdev.submitted"] += float64(h.Submitted)
	c["blockdev.splits"] += float64(h.Splits)
	c["blockdev.errored"] += float64(h.Errored)
	c["blockdev.timed_out"] += float64(h.TimedOut)
	c["core.data_failures"] += float64(rep.Counters.DataFailures)
	c["core.fwa"] += float64(rep.Counters.FWA)
	c["core.io_errors"] += float64(rep.Counters.IOErrors)
	if a := rep.ArrayStats; a != nil {
		c["array.parity_rmws"] += float64(a.ParityRMWs)
		c["array.write_holes"] += float64(a.WriteHoles)
		c["array.reconstructions"] += float64(a.Reconstructions)
	}
	if p == nil {
		return
	}
	var drives []*ssd.Device
	if p.Array != nil {
		drives = p.Array.SSDs()
	}
	if p.SSD != nil {
		drives = append(drives, p.SSD)
	}
	for _, d := range drives {
		cs := d.CacheStats()
		c["dram.hits"] += float64(cs.Hits)
		c["dram.misses"] += float64(cs.Misses)
		c["dram.evictions"] += float64(cs.Evictions)
		c["dram.dropped_dirty"] += float64(cs.DroppedDirty)
		fs := d.FTL().Stats()
		c["ftl.writes_mapped"] += float64(fs.WritesMapped)
		c["ftl.commits"] += float64(fs.Commits)
		c["ftl.gc_collections"] += float64(fs.GCCollections)
		c["ftl.lost_mappings"] += float64(fs.LostMappings)
		c["ftl.wasted_pages"] += float64(fs.WastedPages)
		ch := d.Chip().Stats()
		c["flash.programs"] += float64(ch.Programs)
		c["flash.partial_programs"] += float64(ch.PartialPrograms)
		c["flash.pair_corruptions"] += float64(ch.PairCorruptions)
		ds := d.Stats()
		c["ssd.cache_stalls"] += float64(ds.CacheStalls)
		c["ssd.dirty_pages_lost"] += float64(ds.DirtyPagesLost)
	}
}
