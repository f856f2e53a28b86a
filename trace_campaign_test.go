package powerfail_test

import (
	"context"
	"strings"
	"testing"

	"powerfail"
)

// TestBundledTracesParse: the checked-in fixtures parse, cover both
// accepted CSV formats, and carry enough write traffic to exercise the
// loss taxonomy.
func TestBundledTracesParse(t *testing.T) {
	names := powerfail.BundledTraceNames()
	if len(names) < 2 {
		t.Fatalf("bundled traces: %v", names)
	}
	for _, name := range names {
		tr, err := powerfail.BundledTrace(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tr.Records) == 0 || tr.Writes() == 0 {
			t.Fatalf("%s: %d records, %d writes", name, len(tr.Records), tr.Writes())
		}
		if tr.Duration() <= 0 {
			t.Fatalf("%s: no arrival spread", name)
		}
	}
	if _, err := powerfail.BundledTrace("nope"); err == nil ||
		!strings.Contains(err.Error(), names[0]) {
		t.Fatalf("unknown-trace error does not enumerate fixtures: %v", err)
	}
}

// TestTraceCampaignParallelDeterminism: the tentpole acceptance criterion
// — the same trace file and seeds produce byte-identical reports at
// parallelism 1 and 8, and every report records the trace source with its
// replay coverage.
func TestTraceCampaignParallelDeterminism(t *testing.T) {
	items := smallItems(t, "trace", 0.02)
	run := func(parallelism int) *powerfail.CampaignResult {
		out, err := powerfail.NewCampaign(items,
			powerfail.WithParallelism(parallelism),
		).Run(context.Background())
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return out
	}
	seq := run(1)
	par := run(8)
	if seq.Completed != len(items) || par.Completed != len(items) {
		t.Fatalf("completed %d/%d, want %d", seq.Completed, par.Completed, len(items))
	}
	seqEnc, parEnc := encodeReports(t, seq), encodeReports(t, par)
	anyLoss := false
	for i := range seqEnc {
		if seqEnc[i] != parEnc[i] {
			t.Fatalf("trace item %d (%s) diverged between parallelism 1 and 8:\n%s\n%s",
				i, items[i].Label, seqEnc[i], parEnc[i])
		}
		rep := seq.Results[i].Report
		if rep.Source != "trace" || rep.TraceStats == nil {
			t.Fatalf("trace item %d (%s): source=%q stats=%+v",
				i, items[i].Label, rep.Source, rep.TraceStats)
		}
		if rep.TraceStats.Replayed == 0 || rep.TraceStats.Coverage <= 0 {
			t.Fatalf("trace item %d (%s): nothing replayed: %+v",
				i, items[i].Label, rep.TraceStats)
		}
		if rep.HostStats.TimedOut != 0 {
			t.Fatalf("trace item %d (%s): %d requests timed out", i, items[i].Label, rep.HostStats.TimedOut)
		}
		if rep.DataLosses() > 0 {
			anyLoss = true
		}
	}
	if !anyLoss {
		t.Fatal("no trace point lost data — replay not reaching the volatile paths")
	}
}

// TestTraceFigureContrast: the replayed traffic reproduces the paper's
// topology contrast — the write-through HDD never loses acknowledged
// requests while the volatile-cache SSD does, under the very same trace.
func TestTraceFigureContrast(t *testing.T) {
	items := smallItems(t, "trace", 0.02)
	var picked []powerfail.CatalogItem
	for _, it := range items {
		if strings.Contains(it.Label, "msr-web") {
			picked = append(picked, it)
		}
	}
	if len(picked) == 0 {
		t.Fatal("catalog shape changed: no msr-web items")
	}
	out, err := powerfail.NewCampaign(picked, powerfail.WithParallelism(4)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var ssdLosses int
	for _, res := range out.Results {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Item.Label, res.Err)
		}
		switch {
		case strings.Contains(res.Item.Label, "/hdd/"):
			if res.Report.DataLosses() != 0 {
				t.Fatalf("%s: write-through HDD lost %d acknowledged requests",
					res.Item.Label, res.Report.DataLosses())
			}
		case strings.Contains(res.Item.Label, "/ssd/"):
			ssdLosses += res.Report.DataLosses()
		}
	}
	if ssdLosses == 0 {
		t.Fatal("trace replay on the volatile-cache SSD lost nothing")
	}
}

// TestRunRejectsUnclockableRates: open-loop rates whose mean arrival gap
// is under the simulator's 1 ns clock tick would stop the clock, so the
// run would never reach its next cut. Run must refuse them up front.
func TestRunRejectsUnclockableRates(t *testing.T) {
	prof := powerfail.ProfileA()
	prof.CapacityGB = 8
	opts := powerfail.Options{Seed: 5, Profile: prof}

	w := powerfail.DefaultWorkload()
	w.WSSBytes = 1 << 30
	w.IOPS = 1e10
	if _, err := powerfail.Run(opts, powerfail.Experiment{Workload: w, Faults: 1, RequestsPerFault: 4}); err == nil ||
		!strings.Contains(err.Error(), "1 ns clock tick") {
		t.Errorf("IOPS 1e10: err = %v, want the clock-tick rejection", err)
	}

	tr, err := powerfail.BundledTrace("msr-web")
	if err != nil {
		t.Fatal(err)
	}
	replay := powerfail.TraceReplay(tr, powerfail.TraceOpenLoop)
	replay.TimeScale = 1e-6
	if _, err := powerfail.Run(opts, powerfail.Experiment{Trace: replay, Faults: 1, RequestsPerFault: 4}); err == nil ||
		!strings.Contains(err.Error(), "1 ns clock tick") {
		t.Errorf("msr-web open loop at TimeScale 1e-6: err = %v, want the clock-tick rejection", err)
	}
}
