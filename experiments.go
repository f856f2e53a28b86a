package powerfail

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"powerfail/internal/array"
	"powerfail/internal/fleet"
	"powerfail/internal/hdd"
	"powerfail/internal/power"
	"powerfail/internal/sim"
	"powerfail/internal/ssd"
	"powerfail/internal/trace"
	"powerfail/internal/txn"
	"powerfail/internal/workload"
)

// CatalogItem is one runnable point of a paper experiment: the platform
// options, the experiment spec, and the x-axis value it contributes to its
// figure.
type CatalogItem struct {
	// Figure identifies the paper artifact ("fig5", "fig7", "window", ...).
	Figure string
	// Label names the point ("read%=20", "size=64KB").
	Label string
	// X is the figure's x-axis value for this point.
	X    float64
	Opts Options
	Spec Experiment
}

// CatalogResult pairs an item with its report.
type CatalogResult struct {
	Item   CatalogItem
	Report *Report
	Err    error
	// Wall is the real elapsed time the item's experiment took. It is
	// process telemetry only — excluded from the JSON encoding so campaign
	// outputs stay deterministic across machines.
	Wall time.Duration
	// Reused reports that the result was loaded from a resume archive
	// (WithResume) instead of executed.
	Reused bool
	// raw holds the report's original JSON when the result came from a
	// resume archive; MarshalJSON re-emits it verbatim so a resumed
	// campaign's output is byte-identical to an uninterrupted run.
	raw json.RawMessage
}

func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 5 {
		v = 5
	}
	return v
}

func baseOpts(seed uint64) Options {
	return Options{Seed: seed, Profile: ssd.ProfileA()}
}

func baseWrites(wssGB int) Workload {
	return Workload{
		Name:     "rand-write-4k-1m",
		WSSBytes: int64(wssGB) << 30,
		MinSize:  4 << 10,
		MaxSize:  1 << 20,
		ReadPct:  0,
		Pattern:  workload.Random,
	}
}

// Fig5Items reproduces Fig. 5: impact of request type. Read percentage
// sweeps {0,20,50,80,100} over random 4K-1M requests; >=300 faults per
// point at scale 1.
func Fig5Items(scale float64) []CatalogItem {
	var items []CatalogItem
	for i, readPct := range []int{0, 20, 50, 80, 100} {
		w := baseWrites(16)
		w.Name = fmt.Sprintf("read%d", readPct)
		w.ReadPct = readPct
		items = append(items, CatalogItem{
			Figure: "fig5",
			Label:  fmt.Sprintf("read%%=%d", readPct),
			X:      float64(readPct),
			Opts:   baseOpts(500 + uint64(i)),
			Spec: Experiment{
				Name:             "fig5-" + w.Name,
				Workload:         w,
				Faults:           scaled(300, scale),
				RequestsPerFault: 16,
			},
		})
	}
	return items
}

// Fig6Items reproduces Fig. 6: impact of working set size, WSS from 1 GB
// to 90 GB; >=200 faults per point at scale 1.
func Fig6Items(scale float64) []CatalogItem {
	var items []CatalogItem
	for i, wss := range []int{1, 10, 20, 30, 40, 50, 60, 70, 80, 90} {
		w := baseWrites(wss)
		w.Name = fmt.Sprintf("wss%dg", wss)
		items = append(items, CatalogItem{
			Figure: "fig6",
			Label:  fmt.Sprintf("wss=%dGB", wss),
			X:      float64(wss),
			Opts:   baseOpts(600 + uint64(i)),
			Spec: Experiment{
				Name:             "fig6-" + w.Name,
				Workload:         w,
				Faults:           scaled(200, scale),
				RequestsPerFault: 8,
			},
		})
	}
	return items
}

// SeqRandItems reproduces Section IV-D: fully random versus fully
// sequential writes over a 64 GB working set.
func SeqRandItems(scale float64) []CatalogItem {
	var items []CatalogItem
	for i, pat := range []workload.Pattern{workload.Random, workload.Sequential} {
		w := baseWrites(64)
		w.Pattern = pat
		w.Name = pat.String()
		items = append(items, CatalogItem{
			Figure: "seqrand",
			Label:  pat.String(),
			X:      float64(i),
			Opts:   baseOpts(700 + uint64(i)),
			Spec: Experiment{
				Name:             "ivd-" + w.Name,
				Workload:         w,
				Faults:           scaled(300, scale),
				RequestsPerFault: 40,
			},
		})
	}
	return items
}

// Fig7Items reproduces Fig. 7: impact of request size, fixed sizes 4 KB to
// 1 MB; >=800 faults per point at scale 1.
func Fig7Items(scale float64) []CatalogItem {
	var items []CatalogItem
	for i, kb := range []int{4, 16, 64, 256, 1024} {
		w := baseWrites(16)
		w.Name = fmt.Sprintf("size%dk", kb)
		w.MinSize, w.MaxSize = 0, 0
		w.FixedSize = kb << 10
		items = append(items, CatalogItem{
			Figure: "fig7",
			Label:  fmt.Sprintf("size=%dKB", kb),
			X:      float64(kb),
			Opts:   baseOpts(800 + uint64(i)),
			Spec: Experiment{
				Name:             "fig7-" + w.Name,
				Workload:         w,
				Faults:           scaled(800, scale),
				RequestsPerFault: 16,
			},
		})
	}
	return items
}

// Fig8Items reproduces Fig. 8: requested versus responded IOPS and the
// failure count, with open-loop arrivals; >=600 faults per point at
// scale 1. The host queue is capped so outage-time backlogs stay bounded.
//
// Requests are 4-64 KiB rather than the paper's stated 4 KiB-1 MiB; see
// "Substitutions against the paper" in DESIGN.md.
func Fig8Items(scale float64) []CatalogItem {
	var items []CatalogItem
	for i, iops := range []float64{1200, 2400, 6000, 12000, 20000, 25000, 30000} {
		w := baseWrites(16)
		w.Name = fmt.Sprintf("iops%d", int(iops))
		w.MinSize = 4 << 10
		w.MaxSize = 64 << 10
		w.IOPS = iops
		opts := baseOpts(900 + uint64(i))
		opts.Host.MaxSegPages = 128
		opts.Host.Depth = 32
		opts.Host.PendingCap = 256
		opts.Host.Timeout = 30 * sim.Second
		items = append(items, CatalogItem{
			Figure: "fig8",
			Label:  fmt.Sprintf("iops=%d", int(iops)),
			X:      iops,
			Opts:   opts,
			Spec: Experiment{
				Name:             "fig8-" + w.Name,
				Workload:         w,
				Faults:           scaled(600, scale),
				RequestsPerFault: 20,
			},
		})
	}
	return items
}

// Fig9Items reproduces Fig. 9: access sequences RAW, WAR, RAR, WAW, where
// each second request targets the previous request's address.
func Fig9Items(scale float64) []CatalogItem {
	var items []CatalogItem
	for i, mode := range []workload.SeqMode{workload.RAW, workload.WAR, workload.RAR, workload.WAW} {
		w := baseWrites(16)
		w.Name = mode.String()
		w.Sequence = mode
		items = append(items, CatalogItem{
			Figure: "fig9",
			Label:  mode.String(),
			X:      float64(i),
			Opts:   baseOpts(950 + uint64(i)),
			Spec: Experiment{
				Name:             "fig9-" + w.Name,
				Workload:         w,
				Faults:           scaled(300, scale),
				RequestsPerFault: 16,
			},
		})
	}
	return items
}

// WindowItems reproduces Section IV-A: the workload pauses after a chosen
// request's ACK and the fault lands a configurable delay later, sweeping
// the delay from 0 to 1000 ms; the paper reports data loss for faults up
// to ~700 ms after completion. Items for both cache-enabled and
// cache-disabled drives are produced.
func WindowItems(scale float64) []CatalogItem {
	var items []CatalogItem
	delays := []float64{0, 50, 100, 200, 300, 400, 500, 600, 700, 800, 1000}
	for ci, cacheOff := range []bool{false, true} {
		prof := ssd.ProfileA()
		tag := "cache"
		if cacheOff {
			prof = prof.WithCacheDisabled()
			tag = "nocache"
		}
		for i, ms := range delays {
			opts := baseOpts(1000 + uint64(ci*100+i))
			opts.Profile = prof
			items = append(items, CatalogItem{
				Figure: "window",
				Label:  fmt.Sprintf("delay=%dms/%s", int(ms), tag),
				X:      ms,
				Opts:   opts,
				Spec: Experiment{
					Name:             fmt.Sprintf("iva-delay%d-%s", int(ms), tag),
					Workload:         baseWrites(16),
					Faults:           scaled(60, scale),
					RequestsPerFault: 30,
					WindowMode:       true,
					PostACKDelay:     sim.Millis(ms),
				},
			})
		}
	}
	return items
}

// TableIItems runs the base workload against every Table I drive model.
func TableIItems(scale float64) []CatalogItem {
	var items []CatalogItem
	for i, prof := range ssd.Profiles() {
		opts := baseOpts(1100 + uint64(i))
		opts.Profile = prof
		items = append(items, CatalogItem{
			Figure: "tablei",
			Label:  "ssd-" + prof.Name,
			X:      float64(i),
			Opts:   opts,
			Spec: Experiment{
				Name:             "tablei-" + prof.Name,
				Workload:         baseWrites(16),
				Faults:           scaled(150, scale),
				RequestsPerFault: 16,
			},
		})
	}
	return items
}

// AblationItems exercises the design knobs DESIGN.md calls out: PSU
// discharge versus transistor-fast cut, supercapacitor protection, cache
// disabled, and the journal commit interval.
func AblationItems(scale float64) []CatalogItem {
	var items []CatalogItem
	add := func(label string, opts Options, spec Experiment) {
		items = append(items, CatalogItem{
			Figure: "ablation", Label: label, X: float64(len(items)),
			Opts: opts, Spec: spec,
		})
	}
	base := func(name string) Experiment {
		return Experiment{
			Name:             name,
			Workload:         baseWrites(16),
			Faults:           scaled(150, scale),
			RequestsPerFault: 16,
		}
	}

	// ABL-1: realistic PSU discharge vs high-speed transistor cut.
	slow := baseOpts(1200)
	add("cut=psu-discharge", slow, base("abl-cut-psu"))
	fast := baseOpts(1201)
	fast.PSU = power.Config{VNominal: 5, Capacitance: 2e-6, BleedOhms: 27.7, RiseTime: sim.Millis(1)}
	add("cut=transistor", fast, base("abl-cut-transistor"))

	// ABL-2: supercapacitor power-loss protection.
	plp := baseOpts(1202)
	plp.Profile = ssd.ProfileA().WithSuperCap()
	add("supercap=on", plp, base("abl-supercap"))

	// ABL-4: internal cache disabled.
	nocache := baseOpts(1203)
	nocache.Profile = ssd.ProfileA().WithCacheDisabled()
	add("cache=disabled", nocache, base("abl-nocache"))

	// ABL-3: journal commit interval sweep.
	for i, ms := range []float64{5, 10, 50, 200} {
		o := baseOpts(1210 + uint64(i))
		p := ssd.ProfileA()
		p.JournalTick = sim.Millis(ms)
		o.Profile = p
		add(fmt.Sprintf("journal=%dms", int(ms)), o, base(fmt.Sprintf("abl-journal%d", int(ms))))
	}
	return items
}

// arrayMember is the SSD model array points are built from: drive A with
// a small capacity so member FTL state stays cheap across a campaign.
func arrayMember() ssd.Profile {
	p := ssd.ProfileA()
	p.CapacityGB = 8
	return p
}

// arrayWrites is the array workload: random 4-64 KiB writes over a small
// working set, so every member sees traffic between consecutive faults.
func arrayWrites(name string) Workload {
	return Workload{
		Name:     name,
		WSSBytes: 2 << 30,
		MinSize:  4 << 10,
		MaxSize:  64 << 10,
		Pattern:  workload.Random,
	}
}

// ArrayItems is the "array" figure: RAID-0, RAID-1 and RAID-5 arrays of
// identical drives under the same correlated-fault schedule, sweeping the
// member count per level; >=60 faults per point at scale 1.
func ArrayItems(scale float64) []CatalogItem {
	points := []struct {
		label string
		level array.Level
		n     int
	}{
		{"raid0x2", array.RAID0, 2},
		{"raid0x4", array.RAID0, 4},
		{"raid1x2", array.RAID1, 2},
		{"raid1x3", array.RAID1, 3},
		{"raid5x3", array.RAID5, 3},
		{"raid5x5", array.RAID5, 5},
	}
	var items []CatalogItem
	for i, pt := range points {
		opts := Options{
			Seed:     1300 + uint64(i),
			Topology: ArrayTopology(RAIDConfig(pt.level, pt.n, arrayMember())),
		}
		items = append(items, CatalogItem{
			Figure: "array",
			Label:  pt.label,
			X:      float64(pt.n),
			Opts:   opts,
			Spec: Experiment{
				Name:             "array-" + pt.label,
				Workload:         arrayWrites(pt.label),
				Faults:           scaled(60, scale),
				RequestsPerFault: 12,
			},
		})
	}
	return items
}

// ErasureItems is the "erasure" figure: erasure-coded arrays under
// correlated power faults, crossing code strength (RAID-5, RAID-6,
// RS 8+3) × member mix (uniform drive-A members vs a mix with one
// large-cache QLC straggler) × cut severity (the rig's capacitive PSU
// discharge vs a near-instant transistor cut); >=40 faults per point at
// scale 1. The workload is write-only, so no read reconstructs, and no
// point counts a write hole (a partial ACK set) at -scale 0.2 or 1,
// though a cut leaves stale parity on the members' media. The codes
// differ in parity RMW traffic (each small write reads and writes 1+k
// shards).
// MemberReport charges each failure to the member that held the page.
// Over 16 seeds at scale 1, the straggler's data failures + FWA exceed
// its siblings' mean by about half on raid6/mixed/soft (Welch 95% CI
// +86..+106 over a mean near 185), by under 10% on raid5/mixed/soft
// (+3..+35 over ~410) and rs8+3/mixed/soft (+2..+13 over ~180), and not
// measurably on any hard-cut point.
func ErasureItems(scale float64) []CatalogItem {
	codes := []struct {
		tag    string
		level  array.Level
		n      int
		parity int
	}{
		{"raid5", array.RAID5, 5, 0},
		{"raid6", array.RAID6, 6, 0},
		{"rs8+3", array.RS, 11, 3},
	}
	weak := ssd.ProfileQ()
	weak.CapacityGB = 8 // keep member FTL state campaign-cheap, like arrayMember
	cuts := []struct {
		tag string
		psu power.Config
	}{
		{"soft", power.Config{}}, // zero value: the Fig. 4 capacitive discharge
		{"hard", power.Config{VNominal: 5, Capacitance: 2e-6, BleedOhms: 27.7, RiseTime: sim.Millis(1)}},
	}
	var items []CatalogItem
	i := 0
	for _, code := range codes {
		for _, mix := range []string{"uniform", "mixed"} {
			members := make([]ssd.Profile, code.n)
			for j := range members {
				members[j] = arrayMember()
			}
			if mix == "mixed" {
				members[code.n-1] = weak
			}
			for _, cut := range cuts {
				label := fmt.Sprintf("%s/%s/%s", code.tag, mix, cut.tag)
				opts := Options{
					Seed: 1900 + uint64(i),
					Topology: ArrayTopology(array.Config{
						Level:   code.level,
						Members: members,
						Parity:  code.parity,
					}),
					PSU: cut.psu,
				}
				items = append(items, CatalogItem{
					Figure: "erasure",
					Label:  label,
					X:      float64(i),
					Opts:   opts,
					Spec: Experiment{
						Name:             "erasure-" + strings.NewReplacer("/", "-", "+", "").Replace(label),
						Workload:         arrayWrites(label),
						Faults:           scaled(40, scale),
						RequestsPerFault: 12,
					},
				})
				i++
			}
		}
	}
	return items
}

// CacheItems is the "cache" figure: an SSD cache over a desktop HDD in
// write-back versus write-through policy, for two cache drive models;
// >=60 faults per point at scale 1. The write-back points lose
// acknowledged data (dirty lines die in the cache SSD's DRAM); the
// write-through points do not.
func CacheItems(scale float64) []CatalogItem {
	caches := []ssd.Profile{arrayMember()}
	{
		b := ssd.ProfileB()
		b.CapacityGB = 8
		caches = append(caches, b)
	}
	var items []CatalogItem
	i := 0
	for _, cacheProf := range caches {
		for _, pol := range []array.CachePolicy{array.WriteBack, array.WriteThrough} {
			tag := "wb"
			if pol == array.WriteThrough {
				tag = "wt"
			}
			label := fmt.Sprintf("%s/%s", tag, cacheProf.Name)
			back := hdd.DefaultProfile()
			back.CapacityGB = 64
			opts := Options{
				Seed:     1400 + uint64(i),
				Topology: ArrayTopology(CacheConfig(cacheProf, back, pol)),
			}
			items = append(items, CatalogItem{
				Figure: "cache",
				Label:  label,
				X:      float64(i),
				Opts:   opts,
				Spec: Experiment{
					Name:             "cache-" + tag + "-" + cacheProf.Name,
					Workload:         arrayWrites(label),
					Faults:           scaled(60, scale),
					RequestsPerFault: 12,
				},
			})
			i++
		}
	}
	return items
}

// fleetDomainPoints are the two tree shapes the "fleet" figure contrasts:
// a deep 2×2×2 datacenter slice (8 PSU leaves behind intermediate rack and
// enclosure tiers) and a flat single-rack tree with the same leaf count in
// one enclosure row, so blast radius differences come from topology alone.
var fleetDomainPoints = []struct {
	tag string
	cfg fleet.DomainConfig
}{
	{"deep", fleet.DomainConfig{Racks: 2, EnclosuresPerRack: 2, PSUsPerEnclosure: 2}},
	{"flat", fleet.DomainConfig{Racks: 1, EnclosuresPerRack: 1, PSUsPerEnclosure: 8}},
}

// FleetItems is the "fleet" figure: availability and durability of a fleet
// of RAID-5-like groups on a fault-domain tree, sweeping tree shape (deep
// 2×2×2 vs flat 1×1×8) × spare count (0, 4) × random cut level (PSU, rack,
// room); >=6 cuts per point at scale 1. The y-axis material is
// Report.Fleet: availability and durability nines, rebuild windows and
// rebuild traffic. On a fixed seed the nines fall monotonically as the cut
// level climbs the tree.
func FleetItems(scale float64) []CatalogItem {
	levels := []struct {
		tag string
		l   fleet.Level
	}{
		{"psu", fleet.PSU},
		{"rack", fleet.Rack},
		{"room", fleet.Room},
	}
	var items []CatalogItem
	i := 0
	for _, dom := range fleetDomainPoints {
		for _, spares := range []int{0, 4} {
			for _, lv := range levels {
				cfg := fleet.Config{
					Domains:   dom.cfg,
					Arrays:    6,
					GroupSize: 4,
					Spares:    spares,
					Member:    fleet.MemberProfile{Pages: 2048},
					Rebuild:   fleet.RebuildPolicy{Delay: sim.Second},
					Faults: fleet.FaultPlan{
						Level:  lv.l,
						Count:  scaled(6, scale),
						Outage: 3 * sim.Second,
					},
					Duration: 25 * sim.Second,
				}
				label := fmt.Sprintf("%s/s%d/%s", dom.tag, spares, lv.tag)
				items = append(items, CatalogItem{
					Figure: "fleet",
					Label:  label,
					X:      float64(lv.l),
					Opts:   Options{Seed: 1800 + uint64(i), Fleet: &cfg},
					Spec: Experiment{
						Name: fmt.Sprintf("fleet-%s-s%d-%s", dom.tag, spares, lv.tag),
					},
				})
				i++
			}
		}
	}
	return items
}

// topoPoint is one device topology a figure sweeps.
type topoPoint struct {
	tag  string
	opts func(seed uint64) Options
}

// comparatorTopos is the topology pair the application ("txn") and
// replay ("trace") figures share: the small SSD A against a 64 GB
// write-through HDD, so both figures contrast the volatile-cache drive
// with the mechanical comparator under identical traffic.
func comparatorTopos() []topoPoint {
	return []topoPoint{
		{"ssd", func(seed uint64) Options {
			return Options{Seed: seed, Profile: arrayMember()}
		}},
		{"hdd", func(seed uint64) Options {
			back := hdd.DefaultProfile()
			back.CapacityGB = 64
			return Options{Seed: seed, Topology: HDDTopology(back)}
		}},
	}
}

// txnBarrierPoints is the commit-barrier sweep the "txn" and
// "txn-streams" figures share, so the two figures can never drift apart
// on barrier sets or labels.
var txnBarrierPoints = []struct {
	tag string
	b   txn.Barrier
}{
	{"flush", txn.FlushPerCommit},
	{"group", txn.GroupCommit},
	{"noflush", txn.NoFlush},
}

// TxnItems is the "txn" figure: the transactional WAL application layer
// under power faults, crossing commit barrier policy (flush-per-commit,
// group commit, no-flush) with device topology (single SSD, write-through
// HDD) and cut timing (early cuts land mid-transaction more often; late
// cuts give the volatile cache time to lie); >=40 faults per point at
// scale 1. The y-axis material is Report.TxnStats: lost commits, torn
// transactions and out-of-order durability per fault.
func TxnItems(scale float64) []CatalogItem {
	barriers := txnBarrierPoints
	topos := comparatorTopos()
	timings := []struct {
		tag string
		rpf int
	}{
		{"early", 10},
		{"late", 40},
	}
	var items []CatalogItem
	i := 0
	for _, bar := range barriers {
		for _, topo := range topos {
			for _, tm := range timings {
				cfg := txn.DefaultConfig()
				cfg.Barrier = bar.b
				// A batch of 4 lets group commit make progress even on the
				// mechanical comparator between early cuts.
				cfg.GroupEvery = 4
				opts := topo.opts(1500 + uint64(i))
				opts.App = TxnApp(cfg)
				label := fmt.Sprintf("%s/%s/%s", bar.tag, topo.tag, tm.tag)
				items = append(items, CatalogItem{
					Figure: "txn",
					Label:  label,
					X:      float64(i),
					Opts:   opts,
					Spec: Experiment{
						Name:             "txn-" + bar.tag + "-" + topo.tag + "-" + tm.tag,
						Faults:           scaled(40, scale),
						RequestsPerFault: tm.rpf,
					},
				})
				i++
			}
		}
	}
	return items
}

// txnStreamTopos is the topology triple the "txn-streams" figure sweeps:
// the volatile-cache SSD baseline, a RAID-5 array (write holes vs WAL
// atomicity under correlated faults), and an SSD cache over an HDD in
// write-back (group commit vs lost dirty lines).
func txnStreamTopos() []topoPoint {
	return []topoPoint{
		{"ssd", func(seed uint64) Options {
			return Options{Seed: seed, Profile: arrayMember()}
		}},
		{"raid5", func(seed uint64) Options {
			return Options{Seed: seed, Topology: ArrayTopology(RAIDConfig(RAID5, 3, arrayMember()))}
		}},
		{"cached-hdd", func(seed uint64) Options {
			back := DefaultHDD()
			back.CapacityGB = 64
			return Options{Seed: seed, Topology: ArrayTopology(CacheConfig(arrayMember(), back, WriteBack))}
		}},
	}
}

// TxnStreamItems is the "txn-streams" figure: the multi-stream WAL under
// power faults, crossing the stream count (1, 4, 8) with the commit
// barrier (flush-per-commit, group commit, no-flush) and the device
// topology (single SSD, RAID-5, write-back SSD-cache-over-HDD); >=30
// faults per point at scale 1. The closed-loop concurrency tracks the
// stream count so streams genuinely overlap on the wire and commit
// records interleave on the device. Every report carries the
// recovery-policy ablation (Report.TxnPolicies): the y-axis material is
// the per-policy loss counts, with strict-scan minus hole-tolerant being
// the durable-but-unreachable commits a first-tear-stops scan abandons.
// The streams=1 hole-tolerant rows reproduce the PR-3 "txn" engine on
// identical schedules.
func TxnStreamItems(scale float64) []CatalogItem {
	barriers := txnBarrierPoints
	topos := txnStreamTopos()
	var items []CatalogItem
	i := 0
	for _, n := range []int{1, 4, 8} {
		for _, bar := range barriers {
			for _, topo := range topos {
				cfg := txn.DefaultConfig()
				cfg.Streams = n
				cfg.Barrier = bar.b
				// A batch of 4 lets group commit make progress between
				// early cuts even on the slower composite topologies.
				cfg.GroupEvery = 4
				opts := topo.opts(1700 + uint64(i))
				opts.App = TxnApp(cfg)
				opts.Concurrency = n
				label := fmt.Sprintf("s%d/%s/%s", n, bar.tag, topo.tag)
				items = append(items, CatalogItem{
					Figure: "txn-streams",
					Label:  label,
					X:      float64(n),
					Opts:   opts,
					Spec: Experiment{
						Name:             fmt.Sprintf("txnstreams-s%d-%s-%s", n, bar.tag, topo.tag),
						Faults:           scaled(30, scale),
						RequestsPerFault: 12,
					},
				})
				i++
			}
		}
	}
	return items
}

// bundledTraces are the small MSR-style trace fixtures checked in under
// testdata/traces, embedded so the "trace" figure runs from any working
// directory.
//
//go:embed testdata/traces/*.csv
var bundledTraces embed.FS

// BundledTraceNames lists the checked-in trace fixtures, sorted.
func BundledTraceNames() []string {
	ents, err := bundledTraces.ReadDir("testdata/traces")
	if err != nil {
		panic(err) // embedded directory cannot be missing
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, strings.TrimSuffix(e.Name(), ".csv"))
	}
	sort.Strings(names)
	return names
}

// BundledTrace parses one of the checked-in trace fixtures by name (see
// BundledTraceNames).
func BundledTrace(name string) (*TraceWorkload, error) {
	f, err := bundledTraces.Open("testdata/traces/" + name + ".csv")
	if err != nil {
		return nil, fmt.Errorf("powerfail: unknown bundled trace %q (have %s)",
			name, strings.Join(BundledTraceNames(), " "))
	}
	defer f.Close()
	return ParseTrace(f, name)
}

// TraceItemsFor builds the trace-replay series for one parsed trace:
// topology (single SSD, write-through HDD) × pacing (closed loop,
// open loop at the trace's own arrival times), all under the same fault
// schedule; >=40 faults per point at scale 1. cmd/sweep's -trace flag
// runs it for an arbitrary trace file.
func TraceItemsFor(tr *TraceWorkload, scale float64) []CatalogItem {
	topos := comparatorTopos()
	modes := []trace.Mode{trace.ClosedLoop, trace.OpenLoop}
	var items []CatalogItem
	i := 0
	for _, topo := range topos {
		for _, mode := range modes {
			items = append(items, CatalogItem{
				Figure: "trace",
				Label:  fmt.Sprintf("%s/%s/%s", tr.Name, topo.tag, mode),
				X:      float64(i),
				Opts:   topo.opts(1600 + uint64(i)),
				Spec: Experiment{
					Name:             fmt.Sprintf("trace-%s-%s-%s", tr.Name, topo.tag, mode),
					Source:           SourceTrace,
					Trace:            TraceReplay(tr, mode),
					Faults:           scaled(40, scale),
					RequestsPerFault: 12,
				},
			})
			i++
		}
	}
	return items
}

// TraceItems is the "trace" figure: the bundled MSR-style fixtures
// replayed through the fault pipeline over the TraceItemsFor matrix.
func TraceItems(scale float64) []CatalogItem {
	var items []CatalogItem
	for ti, name := range BundledTraceNames() {
		tr, err := BundledTrace(name)
		if err != nil {
			panic(err) // checked-in fixtures always parse; tests pin this
		}
		sub := TraceItemsFor(tr, scale)
		for i := range sub {
			sub[i].Opts.Seed += uint64(100 * ti) // distinct seeds per fixture
			sub[i].X = float64(len(items) + i)
		}
		items = append(items, sub...)
	}
	return items
}

// FigureInfo describes one registered figure id for discovery (the sweep
// tool's -list).
type FigureInfo struct {
	ID    string
	Title string
	Items int
}

// figureEntry registers a figure id, its display title and its item
// builder. ItemsFor, AllItems and Figures all derive from this table, so
// a new figure registers in one place.
type figureEntry struct {
	id    string
	title string
	build func(scale float64) []CatalogItem
}

var figureRegistry = []figureEntry{
	{"tablei", "Table I — drive behaviour under the base workload", TableIItems},
	{"window", "Sec. IV-A — data loss vs fault delay after request completion", WindowItems},
	{"fig5", "Fig. 5 — impact of request type (read percentage)", Fig5Items},
	{"fig6", "Fig. 6 — impact of workload working set size", Fig6Items},
	{"seqrand", "Sec. IV-D — random vs sequential access pattern", SeqRandItems},
	{"fig7", "Fig. 7 — impact of request size", Fig7Items},
	{"fig8", "Fig. 8 — impact of requested IOPS", Fig8Items},
	{"fig9", "Fig. 9 — impact of access sequence (RAR/RAW/WAR/WAW)", Fig9Items},
	{"ablation", "Ablations — design-choice sensitivity", AblationItems},
	{"array", "Arrays — RAID-0/1/5 under correlated power faults", ArrayItems},
	{"erasure", "Erasure codes — RAID-5/6/RS(8+3) × member mix × cut severity", ErasureItems},
	{"cache", "SSD cache over HDD — write-back vs write-through under faults", CacheItems},
	{"txn", "Transactions — WAL barrier × topology × cut timing under faults", TxnItems},
	{"txn-streams", "Multi-stream WAL — streams × barrier × topology, recovery-policy ablation", TxnStreamItems},
	{"trace", "Trace replay — bundled MSR-style traces × topology × pacing", TraceItems},
	{"fleet", "Fleet — fault-domain tree × spares × cut level, availability nines", FleetItems},
}

// AllItems returns the full catalog at the given scale, in registry order.
func AllItems(scale float64) []CatalogItem {
	var items []CatalogItem
	for _, e := range figureRegistry {
		items = append(items, e.build(scale)...)
	}
	return items
}

// Figures enumerates the registered campaign figures with their titles
// and item counts at the given scale (fig4 runs no campaign and is not
// listed).
func Figures(scale float64) []FigureInfo {
	out := make([]FigureInfo, 0, len(figureRegistry))
	for _, e := range figureRegistry {
		out = append(out, FigureInfo{ID: e.id, Title: e.title, Items: len(e.build(scale))})
	}
	return out
}

// FigureTitle returns the display title for a figure id (the id itself
// when unknown).
func FigureTitle(id string) string {
	for _, e := range figureRegistry {
		if e.id == id {
			return e.title
		}
	}
	return id
}

// CheckScale reports an error unless scale, the fraction of the paper's
// fault counts a catalog runs, is a positive finite number. The catalog
// builders clamp every fault count to a floor, so a NaN, infinite, zero
// or negative scale would otherwise run as a small one.
func CheckScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("powerfail: scale must be a positive finite number, got %v", scale)
	}
	return nil
}

// ItemsFor returns the catalog slice for a figure id ("fig5".."fig9",
// "window", "seqrand", "tablei", "ablation", "array", "erasure", "cache",
// "txn", "txn-streams", "trace", "fleet", "all"). Unknown ids and scales
// CheckScale rejects are errors; an unknown id's error lists the
// registered ids.
func ItemsFor(figure string, scale float64) ([]CatalogItem, error) {
	if err := CheckScale(scale); err != nil {
		return nil, err
	}
	if figure == "all" {
		return AllItems(scale), nil
	}
	for _, e := range figureRegistry {
		if e.id == figure {
			return e.build(scale), nil
		}
	}
	known := make([]string, 0, len(figureRegistry)+1)
	for _, e := range figureRegistry {
		known = append(known, e.id)
	}
	known = append(known, "all")
	return nil, fmt.Errorf("powerfail: unknown figure %q (registered: %s)", figure, strings.Join(known, " "))
}

// VoltagePoint samples the PSU discharge curve.
type VoltagePoint struct {
	T sim.Duration // time since the cut
	V float64
}

// DischargeCurve reproduces Fig. 4: the 5 V rail's voltage after a cut,
// with or without one SSD attached, sampled every step until horizon.
// It also returns the instant the rail crossed 4.5 V (the SSD brownout).
func DischargeCurve(withSSD bool, step, horizon sim.Duration) (curve []VoltagePoint, brownoutAt sim.Duration) {
	k := sim.New()
	psu, err := power.New(k, power.DefaultConfig())
	if err != nil {
		panic(err)
	}
	if withSSD {
		psu.Connect(ssd.ProfileA().LoadOhms)
	}
	psu.PowerOff()
	cut := k.Now()
	brownoutAt = -1
	for t := sim.Duration(0); t <= horizon; t += step {
		v := psu.VoltageAt(cut.Add(t))
		curve = append(curve, VoltagePoint{T: t, V: v})
		if brownoutAt < 0 && v < 4.5 {
			brownoutAt = t
		}
	}
	return curve, brownoutAt
}
