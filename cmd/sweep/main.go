// Command sweep regenerates the paper's tables and figures on the
// simulated platform. Each figure is a series of independent
// fault-injection experiments fanned out over a campaign worker pool; the
// output is a markdown table per figure with the same rows/series the
// paper plots, or the machine-readable campaign JSON.
//
// Usage:
//
//	sweep -set all -scale 0.2        # every figure at 20% of paper-size
//	sweep -set fig7 -scale 1         # Fig. 7 at full scale
//	sweep -set fig5 -parallel 8      # fan out over 8 workers
//	sweep -set fig5 -json            # emit the CampaignResult as JSON
//	sweep -set fig4                  # PSU discharge curves (no faults)
//	sweep -set tablei                # Table I inventory + per-drive runs
//
// Per-item reports depend only on each item's seed, never on -parallel:
// -parallel 8 produces the same tables as -parallel 1, just sooner.
// Ctrl-C cancels the campaign and prints the completed subset.
//
// Figure ids: tablei fig4 window fig5 fig6 seqrand fig7 fig8 fig9 ablation
// array erasure cache txn txn-streams trace fleet all; `sweep -list`
// enumerates them with titles and item counts. -figure is an alias for
// -set:
//
//	sweep -list                             # discover the registered figures
//	sweep -figure array -parallel 4 -json   # RAID-0/1/5 under correlated faults
//	sweep -figure erasure -parallel 4       # RAID-5/6/RS × member mix × cut severity
//	sweep -figure cache -scale 0.5          # write-back vs write-through SSD cache
//	sweep -figure txn -parallel 4           # WAL commits vs barrier policy and topology
//	sweep -figure txn-streams -parallel 4   # concurrent WAL streams + recovery-policy ablation
//	sweep -figure trace                     # bundled MSR-style traces through the pipeline
//	sweep -figure fleet -parallel 4         # fault-domain tree × spares × cut level, nines
//
// -trace replays an arbitrary MSR-style CSV block trace instead of a
// catalog figure, across the same topology × pacing matrix:
//
//	sweep -trace /data/msr/web_2.csv -parallel 4 -json
//
// Observability and process telemetry (all off by default; enabling them
// never changes experiment results):
//
//	sweep -figure fleet -progress            # live done/total, ETA, events/s on stderr
//	sweep -figure fleet -obs -v              # per-experiment metrics summaries
//	sweep -figure fleet -trace-out f.json    # merged Chrome trace for Perfetto
//	sweep -figure fig5 -cpuprofile cpu.pprof # CPU profile of the campaign
//	sweep -figure fig5 -memprofile mem.pprof # heap profile at exit
//	sweep -figure fig5 -listen :9090         # live /metrics (OpenMetrics) + /debug/pprof
//
// -progress writes to stderr, so `-json -progress` still emits clean JSON
// on stdout. -trace-out implies -obs; open the file at
// https://ui.perfetto.dev (one process track per experiment).
//
// Run archives (see DESIGN.md "Run store & differential reports"):
//
//	sweep -figure fig5 -journal fig5.run     # journal every item + final aggregates
//	sweep -figure fig5 -resume fig5.run      # resume: journaled items are not re-run
//	powerstat old.run new.run                # compare two archives, benchstat-style
//
// A journaled campaign appends each item's report to the archive as it
// completes, so an interrupted run (Ctrl-C, crash) keeps its finished
// items; -resume re-uses them byte-for-byte and the final output is
// identical to an uninterrupted run. -resume re-journals to the same
// file unless -journal names a different one.
//
// Sharded campaigns split one figure across machines (or CI jobs): each
// shard runs the items whose index ≡ i (mod n) with the seeds and item
// keys of the full campaign, and -merge re-aggregates the shard archives
// into output byte-identical to the unsharded run:
//
//	sweep -figure fleet -shard 0/2 -journal s0.run   # half the items
//	sweep -figure fleet -shard 1/2 -journal s1.run   # the other half
//	sweep -figure fleet -merge s0.run,s1.run -json   # == unsharded -json
//
// -merge must repeat the shard runs' -figure/-scale/-obs flags (item keys
// hash the full item spec); items missing from every shard run locally.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"powerfail"
	"powerfail/cmd/internal/obsflag"
	"powerfail/internal/sim"
	"powerfail/internal/ssd"
)

func main() {
	set := flag.String("set", "all", "figure id to regenerate (or 'all')")
	flag.StringVar(set, "figure", "all", "alias for -set")
	scale := flag.Float64("scale", 0.2, "fraction of the paper's fault counts")
	parallel := flag.Int("parallel", 1, "worker pool size (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit the CampaignResult as JSON instead of markdown")
	verbose := flag.Bool("v", false, "print every experiment report")
	list := flag.Bool("list", false, "list registered figure ids with titles and item counts, then exit")
	traceFile := flag.String("trace", "", "replay this MSR-style CSV block trace instead of a -figure catalog")
	progress := flag.Bool("progress", false, "live progress line on stderr (done/total, ETA, events/s)")
	obsOn := obsflag.Register()
	traceOut := flag.String("trace-out", "", "write a merged Chrome trace-event JSON file (implies -obs)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	journal := flag.String("journal", "", "journal the campaign to this run archive (resumable, powerstat-comparable)")
	resume := flag.String("resume", "", "resume from this run archive: journaled items are reused, not re-run")
	shardSpec := flag.String("shard", "", "run only shard i/n of the item list (format i/n); requires -journal")
	mergeSpec := flag.String("merge", "", "comma-separated shard archives to merge and re-aggregate (repeat the shards' -figure/-scale/-obs flags)")
	listen := flag.String("listen", "", "serve live telemetry on this address (/metrics OpenMetrics + /debug/pprof)")
	flag.Parse()
	if err := powerfail.CheckScale(*scale); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "sweep: -parallel must not be negative, got %d\n", *parallel)
		os.Exit(2)
	}

	if *list {
		printFigureList(*scale)
		return
	}

	if *parallel == 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *traceFile != "" {
		// A trace run replaces the figure catalog; an explicit -set/-figure
		// alongside it would be silently discarded, so refuse the mix.
		explicitSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "set" || f.Name == "figure" {
				explicitSet = true
			}
		})
		if explicitSet {
			fmt.Fprintln(os.Stderr, "sweep: -trace replaces the figure catalog; drop -set/-figure")
			os.Exit(2)
		}
	}

	if *set == "fig4" {
		if *jsonOut {
			fmt.Fprintln(os.Stderr, "sweep: -json is not available for fig4 (discharge curves run no campaign)")
			os.Exit(2)
		}
		printFig4()
		return
	}
	var items []powerfail.CatalogItem
	if *traceFile != "" {
		tr, err := powerfail.ParseTraceFile(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "replaying %s\n", tr)
		items = powerfail.TraceItemsFor(tr, *scale)
	} else {
		if !*jsonOut {
			if *set == "tablei" || *set == "all" {
				printTableI()
			}
			if *set == "all" {
				printFig4()
			}
		}
		var err error
		items, err = powerfail.ItemsFor(*set, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if cfg := obsflag.Configure(*obsOn || *traceOut != ""); cfg != nil {
		// One shared config: experiments read it, never write it. Each item
		// still builds its own independent registry and trace ring.
		for i := range items {
			items[i].Opts.Obs = cfg
		}
	}

	var tel *telemetry
	if *listen != "" {
		tel = newTelemetry(items)
		addr, err := serveTelemetry(*listen, tel)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics (+ /debug/pprof)\n", addr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	var done int
	var events uint64
	copts := []powerfail.CampaignOption{
		powerfail.WithParallelism(*parallel),
		powerfail.WithProgress(func(res powerfail.CatalogResult) {
			done++
			if res.Report != nil {
				events += res.Report.Events
			}
			if tel != nil {
				tel.observe(res)
			}
			switch {
			case errors.Is(res.Err, context.Canceled):
				// Cancelled items were never run; one summary line suffices.
			case res.Err != nil:
				if *progress {
					fmt.Fprintln(os.Stderr)
				}
				fmt.Fprintf(os.Stderr, "FAIL %s/%s: %v\n", res.Item.Figure, res.Item.Label, res.Err)
			case *verbose && !*jsonOut:
				fmt.Printf("%s\n", res.Report)
			case *progress:
				printProgress(done, len(items), events, time.Since(start))
			default:
				fmt.Fprintf(os.Stderr, "done %s/%s (%.1fs wall)\n",
					res.Item.Figure, res.Item.Label, time.Since(start).Seconds())
			}
		}),
	}
	if *shardSpec != "" {
		if *mergeSpec != "" {
			fmt.Fprintln(os.Stderr, "sweep: -shard and -merge are mutually exclusive")
			os.Exit(2)
		}
		if *journal == "" {
			fmt.Fprintln(os.Stderr, "sweep: -shard requires -journal (the shard's output is its archive)")
			os.Exit(2)
		}
		var si, sn int
		if n, err := fmt.Sscanf(*shardSpec, "%d/%d", &si, &sn); n != 2 || err != nil || sn <= 0 || si < 0 || si >= sn {
			fmt.Fprintf(os.Stderr, "sweep: -shard %q: want i/n with 0 <= i < n\n", *shardSpec)
			os.Exit(2)
		}
		copts = append(copts, powerfail.WithShard(si, sn))
		fmt.Fprintf(os.Stderr, "shard %d/%d of %d items\n", si, sn, len(items))
	}
	if *mergeSpec != "" {
		if *resume != "" {
			fmt.Fprintln(os.Stderr, "sweep: -merge already resumes from the shard archives; drop -resume")
			os.Exit(2)
		}
		var archives []*powerfail.RunArchive
		for _, p := range strings.Split(*mergeSpec, ",") {
			a, aerr := powerfail.OpenRunArchive(strings.TrimSpace(p))
			if aerr != nil {
				fmt.Fprintln(os.Stderr, aerr)
				os.Exit(2)
			}
			archives = append(archives, a)
		}
		merged, merr := powerfail.MergeRunArchives(archives...)
		if merr != nil {
			fmt.Fprintln(os.Stderr, merr)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "merging %d shard archives (%d journaled items)\n",
			len(archives), merged.Completed())
		copts = append(copts, powerfail.WithResume(merged))
	}
	if *resume != "" {
		arch, aerr := powerfail.OpenRunArchive(*resume)
		if aerr != nil {
			fmt.Fprintln(os.Stderr, aerr)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "resuming from %s (%d journaled items)\n", *resume, arch.Completed())
		copts = append(copts, powerfail.WithResume(arch))
		if *journal == "" {
			// Re-journal over the same archive so the resumed run leaves a
			// complete one behind (the archive is fully in memory by now).
			*journal = *resume
		}
	}
	if *journal != "" {
		figID := *set
		if *traceFile != "" {
			figID = "trace"
		}
		copts = append(copts, powerfail.WithJournal(*journal, powerfail.NewRunManifest("sweep", figID, *scale)))
	}
	campaign := powerfail.NewCampaign(items, copts...)
	out, err := campaign.Run(ctx)
	if *progress {
		// Overwrite the live line with the completion summary the ETA line
		// was building toward: items, total wall time, sim-event rate.
		fmt.Fprintf(os.Stderr, "\r%-70s\n", fmt.Sprintf(
			"progress: %d/%d items done | total wall %.1fs | %s sim events/s",
			out.Completed, out.Items, out.WallTime.Seconds(), rate(out.EventsPerSec)))
	}
	if *traceOut != "" {
		if werr := writeChromeTrace(*traceOut, out); werr != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", werr)
			if err == nil {
				defer os.Exit(1)
			}
		} else {
			fmt.Fprintf(os.Stderr, "wrote Chrome trace to %s (open at https://ui.perfetto.dev)\n", *traceOut)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v (%d/%d items completed)\n", err, out.Completed, out.Items)
	}
	if *journal != "" {
		fmt.Fprintf(os.Stderr, "run archive: %s\n", *journal)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		byFigure := map[string][]powerfail.CatalogResult{}
		var order []string
		for _, res := range out.Results {
			if errors.Is(res.Err, context.Canceled) {
				continue // only the completed subset makes the tables
			}
			if _, ok := byFigure[res.Item.Figure]; !ok {
				order = append(order, res.Item.Figure)
			}
			byFigure[res.Item.Figure] = append(byFigure[res.Item.Figure], res)
		}
		for _, fig := range order {
			printFigure(fig, byFigure[fig])
		}
		printSummaries(out)
		if *obsOn {
			// The merged per-figure metric dumps go to stderr, like every
			// other telemetry stream, so stdout stays pure markdown.
			for _, s := range out.Figures {
				obsflag.Dump(os.Stderr, "figure "+s.Figure, s.Obs)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "total wall time: %.1fs (simulated %.0fs, %d workers, %s sim events/s)\n",
		time.Since(start).Seconds(), out.SimTime.Seconds(), *parallel, rate(out.EventsPerSec))
	switch {
	case errors.Is(err, context.Canceled):
		os.Exit(130)
	case err != nil:
		os.Exit(1)
	case out.Failed > 0:
		// Every table and summary is out; the exit code carries the
		// failed items to scripts and CI.
		fmt.Fprintf(os.Stderr, "sweep: %d of %d items failed\n", out.Failed, out.Items)
		os.Exit(1)
	}
}

// printProgress rewrites the live stderr status line: completed items,
// percentage, simulated-event throughput and a naive per-item-rate ETA.
func printProgress(done, total int, events uint64, elapsed time.Duration) {
	line := fmt.Sprintf("progress: %d/%d items (%d%%)", done, total, 100*done/total)
	if sec := elapsed.Seconds(); sec > 0 {
		line += fmt.Sprintf(" | %s events/s", rate(float64(events)/sec))
	}
	if done > 0 && done < total {
		eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done)).Round(time.Second)
		line += fmt.Sprintf(" | eta %s", eta)
	}
	// Pad over any longer previous line before the carriage return.
	fmt.Fprintf(os.Stderr, "\r%-70s", line)
}

// rate renders an events-per-second figure compactly (12.3M, 456k, 789).
func rate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// writeChromeTrace merges every completed item's structured trace into one
// Chrome trace-event JSON file, one process track per experiment.
func writeChromeTrace(path string, out *powerfail.CampaignResult) error {
	var procs []powerfail.ObsProcess
	for _, res := range out.Results {
		if res.Err != nil || res.Report == nil || res.Report.ObsTrace.Len() == 0 {
			continue
		}
		procs = append(procs, powerfail.ObsProcess{
			Name:   res.Item.Figure + "/" + res.Item.Label,
			Events: res.Report.ObsTrace.Events(),
		})
	}
	if len(procs) == 0 {
		return fmt.Errorf("trace-out: no structured trace events captured (did every item fail?)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := powerfail.WriteObsChromeTrace(f, procs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printSummaries(out *powerfail.CampaignResult) {
	fmt.Printf("\n## Campaign summary\n\n")
	fmt.Printf("| figure | items | faults | data failures | FWA | IO errors | loss/fault mean ± 95%% CI |\n")
	fmt.Printf("|---|---:|---:|---:|---:|---:|---:|\n")
	for _, s := range out.Figures {
		fmt.Printf("| %s | %d/%d | %d | %d | %d | %d | %.2f ± %.2f |\n",
			s.Figure, s.Completed, s.Items, s.Faults, s.DataFailures, s.FWA, s.IOErrors,
			s.LossPerFault.Mean, s.LossPerFault.CI95)
	}
}

// printFigureList is the -list output: every registered campaign figure
// with its title and item count, plus the campaign-less fig4.
func printFigureList(scale float64) {
	fmt.Printf("%-10s %6s  %s\n", "figure", "items", "title")
	for _, fi := range powerfail.Figures(scale) {
		fmt.Printf("%-10s %6d  %s\n", fi.ID, fi.Items, fi.Title)
	}
	fmt.Printf("%-10s %6s  %s\n", "fig4", "-", "Fig. 4 — PSU discharge curves (no campaign)")
	fmt.Printf("%-10s %6s  %s\n", "all", "", "every campaign figure above")
	fmt.Printf("\nitem counts at -scale %g\n", scale)
}

func printFigure(fig string, results []powerfail.CatalogResult) {
	fmt.Printf("\n## %s\n\n", powerfail.FigureTitle(fig))
	txnMode := false
	for _, res := range results {
		if res.Err == nil && res.Report != nil && res.Report.TxnStats != nil {
			txnMode = true
			break
		}
	}
	if txnMode {
		// The last three columns are the recovery-policy ablation: what a
		// strict first-tear-stops log scan would lose on the same observed
		// state, and how many of those losses were durable on media but
		// unreachable behind the tear.
		fmt.Printf("| point | faults | committed | intact | lost-commit | torn | out-of-order | unacked | scan pages/fault | strict-lost | strict-torn | unreachable |\n")
		fmt.Printf("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n")
		for _, res := range results {
			if res.Err != nil {
				fmt.Printf("| %s | ERROR: %v |\n", res.Item.Label, res.Err)
				continue
			}
			r, s := res.Report, res.Report.TxnStats
			scanPerFault := 0.0
			if r.Faults > 0 {
				scanPerFault = float64(s.ScanPages) / float64(r.Faults)
			}
			strict := r.TxnPolicy(powerfail.StrictScanRecovery)
			fmt.Printf("| %s | %d | %d | %d | %d | %d | %d | %d | %.0f | %d | %d | %d |\n",
				res.Item.Label, r.Faults, s.Committed, s.Intact, s.LostCommits,
				s.Torn, s.OutOfOrder, s.Unacked, scanPerFault,
				strict.LostCommits+strict.OutOfOrder, strict.Torn, r.TxnUnreachable())
		}
		return
	}
	fleetMode := false
	for _, res := range results {
		if res.Err == nil && res.Report != nil && res.Report.Fleet != nil {
			fleetMode = true
			break
		}
	}
	if fleetMode {
		// Availability nines count up+degraded intervals; durability nines
		// come from bytes lost when a group exceeds its redundancy.
		fmt.Printf("| point | cuts | declared | transient | spare takes | shortages | rebuilds | rebuild MiB | avail 9s | durab 9s | losses |\n")
		fmt.Printf("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n")
		for _, res := range results {
			if res.Err != nil {
				fmt.Printf("| %s | ERROR: %v |\n", res.Item.Label, res.Err)
				continue
			}
			s := res.Report.Fleet
			rebuildMiB := float64(s.RebuildReadBytes+s.RebuildWriteBytes) / (1 << 20)
			fmt.Printf("| %s | %d | %d | %d | %d | %d | %d/%d | %.1f | %.2f | %.2f | %d |\n",
				res.Item.Label, s.Cuts, s.DeclaredFailures, s.TransientRecoveries,
				s.SpareTakes, s.SpareShortages, s.RebuildCompleted, s.RebuildWindows,
				rebuildMiB, s.AvailabilityNines, s.DurabilityNines, s.LossEvents)
		}
		return
	}
	traceMode := false
	for _, res := range results {
		if res.Err == nil && res.Report != nil && res.Report.TraceStats != nil {
			traceMode = true
			break
		}
	}
	if traceMode {
		fmt.Printf("| point | faults | data failures | FWA | IO errors | loss/fault | replayed | coverage | laps |\n")
		fmt.Printf("|---|---:|---:|---:|---:|---:|---:|---:|---:|\n")
		for _, res := range results {
			if res.Err != nil {
				fmt.Printf("| %s | ERROR: %v |\n", res.Item.Label, res.Err)
				continue
			}
			r, s := res.Report, res.Report.TraceStats
			fmt.Printf("| %s | %d | %d | %d | %d | %.2f | %d | %.0f%% | %d |\n",
				res.Item.Label, r.Faults, r.Counters.DataFailures, r.Counters.FWA,
				r.Counters.IOErrors, r.DataLossPerFault, s.Replayed, 100*s.Coverage, s.Laps)
		}
		return
	}
	fmt.Printf("| point | faults | data failures | FWA | IO errors | data loss/fault | responded IOPS |\n")
	fmt.Printf("|---|---:|---:|---:|---:|---:|---:|\n")
	for _, res := range results {
		if res.Err != nil {
			fmt.Printf("| %s | ERROR: %v |\n", res.Item.Label, res.Err)
			continue
		}
		r := res.Report
		fmt.Printf("| %s | %d | %d | %d | %d | %.2f | %.0f |\n",
			res.Item.Label, r.Faults, r.Counters.DataFailures, r.Counters.FWA,
			r.Counters.IOErrors, r.DataLossPerFault, r.RespondedIOPS)
	}
}

func printTableI() {
	fmt.Printf("\n## Table I — SSDs under test\n\n")
	fmt.Printf("| SSD | Size (GB) | Interface | Internal cache | ECC | Cell | Release year |\n")
	fmt.Printf("|---|---:|---|---|---|---|---|\n")
	for _, p := range ssd.Profiles() {
		cache := "No"
		if p.HasCache {
			cache = fmt.Sprintf("Yes (%d MB)", p.CacheMB)
		}
		year := "NA"
		if p.ReleaseYear > 0 {
			year = fmt.Sprintf("%d", p.ReleaseYear)
		}
		fmt.Printf("| %s | %d | %s | %s | %s (%d b/KB) | %s | %s |\n",
			p.Name, p.CapacityGB, p.Interface, cache, p.ECC.Scheme, p.ECC.CorrectPerKB,
			p.Cell, year)
	}
}

func printFig4() {
	fmt.Printf("\n## Fig. 4 — PSU output voltage during the discharge phase\n\n")
	for _, withSSD := range []bool{false, true} {
		label := "(a) no device attached"
		if withSSD {
			label = "(b) one SSD attached"
		}
		curve, _ := powerfail.DischargeCurve(withSSD, 100*sim.Millisecond, 1600*sim.Millisecond)
		fmt.Printf("%s:\n\n| t (ms) | V |\n|---:|---:|\n", label)
		for _, pt := range curve {
			fmt.Printf("| %.0f | %.2f |\n", pt.T.Millis(), pt.V)
		}
		if withSSD {
			_, b := powerfail.DischargeCurve(true, sim.Millisecond, 100*sim.Millisecond)
			fmt.Printf("\nSSD brownout (4.5 V) crossing: %.0f ms after the cut\n", b.Millis())
		}
		fmt.Println()
	}
}
