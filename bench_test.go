// Benchmarks that regenerate every table and figure of the paper's
// evaluation. Each benchmark prints its figure's series once (at a reduced
// fault count; run cmd/sweep -scale 1 for paper-sized runs) and then times
// a representative experiment per iteration, reporting simulated fault
// cycles per second and data losses per fault as custom metrics.
package powerfail_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"powerfail"
	"powerfail/internal/sim"
)

// benchScale keeps the printed series cheap; shapes are already visible.
const benchScale = 0.04

var printOnce sync.Map

func printSeries(b *testing.B, figure, title string) {
	b.Helper()
	once, _ := printOnce.LoadOrStore(figure, &sync.Once{})
	once.(*sync.Once).Do(func() {
		items, err := powerfail.ItemsFor(figure, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		out, err := powerfail.NewCampaign(items).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\n=== %s ===\n", title)
		fmt.Printf("%-22s %8s %8s %8s %8s %12s %10s\n",
			"point", "faults", "data", "fwa", "ioerr", "loss/fault", "iops")
		for _, res := range out.Results {
			if res.Err != nil {
				b.Fatalf("%s: %v", res.Item.Label, res.Err)
			}
			r := res.Report
			fmt.Printf("%-22s %8d %8d %8d %8d %12.2f %10.0f\n",
				res.Item.Label, r.Faults, r.Counters.DataFailures, r.Counters.FWA,
				r.Counters.IOErrors, r.DataLossPerFault, r.RespondedIOPS)
		}
	})
}

// timeOne runs a small experiment per iteration so ns/op measures a full
// fault-injection cycle pipeline.
func timeOne(b *testing.B, opts powerfail.Options, spec powerfail.Experiment) {
	b.Helper()
	var losses, faults int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		rep, err := powerfail.Run(opts, spec)
		if err != nil {
			b.Fatal(err)
		}
		losses += rep.DataLosses()
		faults += rep.Faults
	}
	b.StopTimer()
	if faults > 0 {
		b.ReportMetric(float64(losses)/float64(faults), "losses/fault")
		b.ReportMetric(float64(faults)/b.Elapsed().Seconds(), "faultcycles/s")
	}
}

func benchOpts() powerfail.Options {
	prof := powerfail.ProfileA()
	prof.CapacityGB = 8 // small maps; policies identical
	return powerfail.Options{Profile: prof}
}

func benchSpec(mutate func(*powerfail.Experiment)) powerfail.Experiment {
	spec := powerfail.Experiment{
		Name:             "bench",
		Workload:         powerfail.DefaultWorkload(),
		Faults:           5,
		RequestsPerFault: 12,
	}
	spec.Workload.WSSBytes = 1 << 30
	if mutate != nil {
		mutate(&spec)
	}
	return spec
}

// BenchmarkExperimentAllocs times one small single-SSD fault-injection
// experiment per iteration with allocation reporting. allocs/op tracks
// the whole experiment — platform construction, event loop, content
// generation and verification — so it catches allocation regressions
// anywhere in the pipeline, while the kernel and blockdev benchmarks
// isolate the zero-alloc hot paths themselves.
func BenchmarkExperimentAllocs(b *testing.B) {
	opts := benchOpts()
	spec := benchSpec(nil)
	var faults int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		rep, err := powerfail.Run(opts, spec)
		if err != nil {
			b.Fatal(err)
		}
		faults += rep.Faults
	}
	b.StopTimer()
	if faults > 0 {
		b.ReportMetric(float64(faults)/b.Elapsed().Seconds(), "faultcycles/s")
	}
}

// BenchmarkTableISSDProfiles regenerates Table I behaviour: the base
// workload against each drive model.
func BenchmarkTableISSDProfiles(b *testing.B) {
	printSeries(b, "tablei", "Table I: drive models under the base workload")
	timeOne(b, benchOpts(), benchSpec(nil))
}

// BenchmarkFig4PSUDischarge regenerates the discharge curves and times the
// analytic voltage model.
func BenchmarkFig4PSUDischarge(b *testing.B) {
	once, _ := printOnce.LoadOrStore("fig4", &sync.Once{})
	once.(*sync.Once).Do(func() {
		fmt.Printf("\n=== Fig. 4: PSU discharge ===\n")
		for _, withSSD := range []bool{false, true} {
			curve, brownout := powerfail.DischargeCurve(withSSD, 100*sim.Millisecond, 1500*sim.Millisecond)
			fmt.Printf("withSSD=%v: V(0)=%.2f V(900ms)=%.2f V(1400ms)=%.2f brownout@%.0fms\n",
				withSSD, curve[0].V, curve[9].V, curve[14].V, brownout.Millis())
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = powerfail.DischargeCurve(true, 10*sim.Millisecond, 1500*sim.Millisecond)
	}
}

// BenchmarkSecIVAPostACKWindow regenerates the Section IV-A series: data
// loss as a function of the delay between a request's ACK and the fault.
func BenchmarkSecIVAPostACKWindow(b *testing.B) {
	printSeries(b, "window", "Sec. IV-A: fault delay after request completion")
	timeOne(b, benchOpts(), benchSpec(func(s *powerfail.Experiment) {
		s.WindowMode = true
		s.PostACKDelay = 100 * sim.Millisecond
	}))
}

// BenchmarkFig5RequestType regenerates the read-percentage sweep.
func BenchmarkFig5RequestType(b *testing.B) {
	printSeries(b, "fig5", "Fig. 5: impact of request type (read percentage)")
	timeOne(b, benchOpts(), benchSpec(func(s *powerfail.Experiment) {
		s.Workload.ReadPct = 50
	}))
}

// BenchmarkFig6WorkingSetSize regenerates the WSS sweep.
func BenchmarkFig6WorkingSetSize(b *testing.B) {
	printSeries(b, "fig6", "Fig. 6: impact of working set size")
	timeOne(b, benchOpts(), benchSpec(func(s *powerfail.Experiment) {
		s.Workload.WSSBytes = 4 << 30
	}))
}

// BenchmarkSecIVDAccessPattern regenerates random vs sequential.
func BenchmarkSecIVDAccessPattern(b *testing.B) {
	printSeries(b, "seqrand", "Sec. IV-D: random vs sequential writes")
	timeOne(b, benchOpts(), benchSpec(func(s *powerfail.Experiment) {
		s.Workload.Pattern = powerfail.SequentialPattern
	}))
}

// BenchmarkFig7RequestSize regenerates the request-size sweep.
func BenchmarkFig7RequestSize(b *testing.B) {
	printSeries(b, "fig7", "Fig. 7: impact of request size")
	timeOne(b, benchOpts(), benchSpec(func(s *powerfail.Experiment) {
		s.Workload.MinSize, s.Workload.MaxSize = 0, 0
		s.Workload.FixedSize = 4 << 10
	}))
}

// BenchmarkFig8RequestedIOPS regenerates the requested-IOPS sweep.
func BenchmarkFig8RequestedIOPS(b *testing.B) {
	printSeries(b, "fig8", "Fig. 8: requested vs responded IOPS and failures")
	timeOne(b, benchOpts(), benchSpec(func(s *powerfail.Experiment) {
		s.Workload.MaxSize = 64 << 10
		s.Workload.IOPS = 6000
	}))
}

// BenchmarkFig9AccessSequences regenerates the RAR/RAW/WAR/WAW bars.
func BenchmarkFig9AccessSequences(b *testing.B) {
	printSeries(b, "fig9", "Fig. 9: impact of access sequences")
	timeOne(b, benchOpts(), benchSpec(func(s *powerfail.Experiment) {
		s.Workload.Sequence = powerfail.WAW
	}))
}

// BenchmarkAblationCutSpeed compares the realistic PSU discharge against a
// transistor-fast cut (the platform-design ablation of DESIGN.md).
func BenchmarkAblationCutSpeed(b *testing.B) {
	printSeries(b, "ablation", "Ablations: cut speed, supercap, cache, journal interval")
	opts := benchOpts()
	opts.PSU = powerfail.PSUConfig{VNominal: 5, Capacitance: 2e-6, BleedOhms: 27.7, RiseTime: sim.Millisecond}
	timeOne(b, opts, benchSpec(nil))
}

// BenchmarkAblationSupercap times the power-loss-protected build.
func BenchmarkAblationSupercap(b *testing.B) {
	printSeries(b, "ablation", "Ablations")
	opts := benchOpts()
	opts.Profile = opts.Profile.WithSuperCap()
	timeOne(b, opts, benchSpec(nil))
}

// BenchmarkAblationCacheDisabled times the cache-off build.
func BenchmarkAblationCacheDisabled(b *testing.B) {
	printSeries(b, "ablation", "Ablations")
	opts := benchOpts()
	opts.Profile = opts.Profile.WithCacheDisabled()
	timeOne(b, opts, benchSpec(nil))
}

// BenchmarkAblationJournalInterval times a slow-journal build.
func BenchmarkAblationJournalInterval(b *testing.B) {
	printSeries(b, "ablation", "Ablations")
	opts := benchOpts()
	opts.Profile.JournalTick = 200 * sim.Millisecond
	timeOne(b, opts, benchSpec(nil))
}

// BenchmarkTraceReplay times a bundled-trace fault cycle end to end
// (parse once, replay per iteration).
func BenchmarkTraceReplay(b *testing.B) {
	printSeries(b, "trace", "Trace replay: bundled MSR-style traces")
	tr, err := powerfail.BundledTrace("msr-web")
	if err != nil {
		b.Fatal(err)
	}
	timeOne(b, benchOpts(), benchSpec(func(s *powerfail.Experiment) {
		s.Workload = powerfail.Workload{}
		s.Trace = powerfail.TraceReplay(tr, powerfail.TraceClosedLoop)
	}))
}

// BenchmarkFleetCampaign times a datacenter-scale fleet run — 100
// RAID-5-like groups plus spares on a 4×2×2 fault-domain tree with random
// PSU cuts — and reports simulated kernel events per second, the figure
// of merit for the fleet simulation layer.
func BenchmarkFleetCampaign(b *testing.B) {
	printSeries(b, "fleet", "Fleet: fault-domain tree × spares × cut level")
	cfg := powerfail.DefaultFleetConfig()
	cfg.Domains = powerfail.FleetDomains{Racks: 4, EnclosuresPerRack: 2, PSUsPerEnclosure: 2}
	cfg.Arrays = 100
	cfg.Spares = 8
	cfg.Member.Pages = 2048
	cfg.Faults.Count = 5
	spec := powerfail.Experiment{Name: "bench-fleet"}
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := powerfail.Run(powerfail.Options{Seed: uint64(i + 1), Fleet: &cfg}, spec)
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Fleet.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkVerificationPipelining demonstrates the pipelined control
// reads: a large-RequestsPerFault experiment spends most of its simulated
// time re-reading packets after each fault, and Opts.Concurrency above 1
// keeps that many verification reads in flight. The workload is
// open-loop (IOPS-paced), so the concurrency knob changes only the
// verify/recovery pipeline, not the traffic: compare sim_ms/fault — the
// platform's wall-clock per fault cycle — between the serialized (1) and
// pipelined (8) variants.
func BenchmarkVerificationPipelining(b *testing.B) {
	w := powerfail.DefaultWorkload()
	w.WSSBytes = 1 << 30
	w.MinSize = 4 << 10
	w.MaxSize = 16 << 10
	w.IOPS = 20000
	spec := powerfail.Experiment{
		Name: "verify-pipe", Workload: w, Faults: 2, RequestsPerFault: 4000,
	}
	for _, conc := range []int{1, 8} {
		b.Run(fmt.Sprintf("concurrency=%d", conc), func(b *testing.B) {
			opts := benchOpts()
			opts.Concurrency = conc
			var simTotal powerfail.Duration
			faults := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts.Seed = uint64(i + 1)
				rep, err := powerfail.Run(opts, spec)
				if err != nil {
					b.Fatal(err)
				}
				simTotal += rep.SimDuration
				faults += rep.Faults
			}
			b.StopTimer()
			if faults > 0 {
				b.ReportMetric(simTotal.Seconds()*1000/float64(faults), "sim_ms/fault")
				b.ReportMetric(float64(faults)/b.Elapsed().Seconds(), "faultcycles/s")
			}
		})
	}
}
