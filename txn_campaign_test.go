package powerfail_test

import (
	"context"
	"strings"
	"testing"

	"powerfail"
)

// TestTxnCampaignParallelDeterminism: the application-layer acceptance
// criterion — the "txn" figure produces byte-identical reports at
// parallelism 1 and 8. The engine, the oracle and every device model run
// single-threaded per item from the item seed, so scheduling can never
// leak into a verdict.
func TestTxnCampaignParallelDeterminism(t *testing.T) {
	items := smallItems(t, "txn", 0.02)
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
	for i := range seqEnc {
		if seqEnc[i] != parEnc[i] {
			t.Fatalf("txn item %d (%s) diverged between parallelism 1 and 8:\n%s\n%s",
				i, items[i].Label, seqEnc[i], parEnc[i])
		}
		if seq.Results[i].Report.TxnStats == nil {
			t.Fatalf("txn item %d (%s): no TxnStats in report", i, items[i].Label)
		}
		if n := seq.Results[i].Report.HostStats.TimedOut; n != 0 {
			t.Fatalf("txn item %d (%s): %d requests timed out", i, items[i].Label, n)
		}
	}
}

// TestTxnFigureAcceptancePair: the catalog's own flush-per-commit points
// lose no acknowledged transaction on any topology, while the no-flush
// SSD points lose some — the barrier is the only difference.
func TestTxnFigureAcceptancePair(t *testing.T) {
	items := smallItems(t, "txn", 0.02)
	var flushItems, noflushSSD []powerfail.CatalogItem
	for _, it := range items {
		switch {
		case strings.HasPrefix(it.Label, "flush/"):
			flushItems = append(flushItems, it)
		case strings.HasPrefix(it.Label, "noflush/ssd"):
			noflushSSD = append(noflushSSD, it)
		}
	}
	if len(flushItems) == 0 || len(noflushSSD) == 0 {
		t.Fatalf("catalog shape changed: %d flush, %d noflush/ssd items", len(flushItems), len(noflushSSD))
	}

	out, err := powerfail.NewCampaign(append(flushItems, noflushSSD...),
		powerfail.WithParallelism(4)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var noflushLosses int64
	for _, res := range out.Results {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Item.Label, res.Err)
		}
		s := res.Report.TxnStats
		if s == nil {
			t.Fatalf("%s: no TxnStats", res.Item.Label)
		}
		if strings.HasPrefix(res.Item.Label, "flush/") {
			if s.Losses() != 0 {
				t.Fatalf("%s: flush-per-commit lost %d transactions: %s", res.Item.Label, s.Losses(), s)
			}
		} else {
			noflushLosses += s.LostCommits
			// Every oracle loss must be witnessed by device-level loss in
			// the same report (the emergence criterion).
			if s.Losses() > 0 && res.Report.DataLosses() == 0 &&
				(res.Report.DeviceStats == nil || res.Report.DeviceStats.DirtyPagesLost == 0) {
				t.Fatalf("%s: %d oracle losses without device-level corroboration", res.Item.Label, s.Losses())
			}
		}
	}
	if noflushLosses == 0 {
		t.Fatal("no-flush on the volatile-cache SSD lost no commits across the figure")
	}
}

// TestFiguresRegistry: the -list discovery path — every registered figure
// has a title and a non-empty item series, ItemsFor agrees with the
// registry, and FigureTitle resolves known ids.
func TestFiguresRegistry(t *testing.T) {
	figs := powerfail.Figures(0.01)
	if len(figs) != len(catalogFigures) {
		t.Fatalf("registry lists %d figures, catalogFigures has %d", len(figs), len(catalogFigures))
	}
	for _, fi := range figs {
		if fi.Title == "" || fi.Title == fi.ID {
			t.Errorf("%s: no display title", fi.ID)
		}
		if fi.Items == 0 {
			t.Errorf("%s: empty series in registry", fi.ID)
		}
		items, err := powerfail.ItemsFor(fi.ID, 0.01)
		if err != nil {
			t.Errorf("%s: %v", fi.ID, err)
			continue
		}
		if len(items) != fi.Items {
			t.Errorf("%s: registry says %d items, ItemsFor returns %d", fi.ID, fi.Items, len(items))
		}
		if powerfail.FigureTitle(fi.ID) != fi.Title {
			t.Errorf("%s: FigureTitle mismatch", fi.ID)
		}
	}
	if got := powerfail.FigureTitle("nope"); got != "nope" {
		t.Errorf("unknown id title = %q", got)
	}
	// The unknown-figure error names the registered ids (discovery on typo).
	_, err := powerfail.ItemsFor("fig77", 1)
	if err == nil || !strings.Contains(err.Error(), "txn") || !strings.Contains(err.Error(), "fig7") {
		t.Errorf("typo error does not enumerate figures: %v", err)
	}
}
