package powerfail_test

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"powerfail"
)

// obsItems returns the first n items of a figure with the observability
// layer enabled on each.
func obsItems(t *testing.T, figure string, scale float64, n int) []powerfail.CatalogItem {
	t.Helper()
	items := smallItems(t, figure, scale)
	if n > 0 && len(items) > n {
		items = items[:n]
	}
	cfg := powerfail.DefaultObsConfig()
	for i := range items {
		items[i].Opts.Obs = &cfg
	}
	return items
}

// dumpSummaries renders every per-item obs summary as its deterministic
// text dump (nil summaries render empty).
func dumpSummaries(t *testing.T, out *powerfail.CampaignResult) []string {
	t.Helper()
	dumps := make([]string, len(out.Results))
	for i, res := range out.Results {
		if res.Report == nil || res.Report.Obs == nil {
			continue
		}
		var b strings.Builder
		if err := res.Report.Obs.Dump(&b); err != nil {
			t.Fatal(err)
		}
		dumps[i] = b.String()
	}
	return dumps
}

// TestCampaignObsParallelDeterminism is the acceptance criterion for the
// telemetry itself: with observability enabled, the same items produce
// byte-identical metric dumps and identical trace-event streams at
// parallelism 1 and 8.
func TestCampaignObsParallelDeterminism(t *testing.T) {
	items := obsItems(t, "fleet", 0.02, 4)
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

	seqDump, parDump := dumpSummaries(t, seq), dumpSummaries(t, par)
	for i := range seqDump {
		if seqDump[i] == "" {
			t.Fatalf("item %d (%s): no obs summary", i, items[i].Label)
		}
		if seqDump[i] != parDump[i] {
			t.Errorf("item %d (%s) metric dump diverged between parallelism 1 and 8:\n%s\n%s",
				i, items[i].Label, seqDump[i], parDump[i])
		}
		a, b := seq.Results[i].Report.ObsTrace.Events(), par.Results[i].Report.ObsTrace.Events()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("item %d (%s) trace diverged: %d vs %d events",
				i, items[i].Label, len(a), len(b))
		}
	}
}

// TestCampaignObsEquivalence: enabling observability changes no campaign
// report, across figures that exercise the single-SSD, array and fleet
// paths.
func TestCampaignObsEquivalence(t *testing.T) {
	for _, fig := range []string{"seqrand", "array", "fleet"} {
		fig := fig
		t.Run(fig, func(t *testing.T) {
			plain := smallItems(t, fig, 0.02)
			if len(plain) > 2 {
				plain = plain[:2]
			}
			instrumented := obsItems(t, fig, 0.02, 2)

			run := func(items []powerfail.CatalogItem) *powerfail.CampaignResult {
				out, err := powerfail.NewCampaign(items,
					powerfail.WithParallelism(2)).Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			off := run(plain)
			on := run(instrumented)
			for i := range off.Results {
				offRep := off.Results[i].Report
				onRep := *on.Results[i].Report
				if onRep.Obs == nil {
					t.Fatalf("item %d: no obs summary on instrumented run", i)
				}
				onRep.Obs = nil // the only JSON-visible addition
				offJSON, err := json.Marshal(offRep)
				if err != nil {
					t.Fatal(err)
				}
				onJSON, err := json.Marshal(&onRep)
				if err != nil {
					t.Fatal(err)
				}
				if string(offJSON) != string(onJSON) {
					t.Errorf("item %d (%s): observability changed the report:\n%s\n%s",
						i, off.Results[i].Item.Label, offJSON, onJSON)
				}
			}
		})
	}
}

// TestFigureObsMerge: the per-figure summary merges the per-item
// observability summaries exactly — counters add and histogram counts sum
// bucket-for-bucket.
func TestFigureObsMerge(t *testing.T) {
	items := obsItems(t, "fleet", 0.02, 4)
	out, err := powerfail.NewCampaign(items,
		powerfail.WithParallelism(2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures) != 1 {
		t.Fatalf("figures = %d, want 1", len(out.Figures))
	}
	merged := out.Figures[0].Obs
	if merged == nil {
		t.Fatal("figure summary carries no merged obs")
	}

	parts := make([]*powerfail.ObsSummary, 0, len(out.Results))
	for _, res := range out.Results {
		parts = append(parts, res.Report.Obs)
	}
	want := powerfail.MergeObsSummaries(parts)
	if !reflect.DeepEqual(merged, want) {
		t.Error("figure obs summary != MergeObsSummaries of the item summaries")
	}

	// Counters add across items.
	var cuts int64
	for _, res := range out.Results {
		cuts += res.Report.Obs.Counter("power/cuts")
	}
	if got := merged.Counter("power/cuts"); got != cuts {
		t.Errorf("merged power/cuts = %d, want %d", got, cuts)
	}
	// Histogram counts sum, and quantiles stay within the merged extremes.
	var windows uint64
	for _, res := range out.Results {
		windows += res.Report.Obs.Histogram("fleet/rebuild_window_ns").Count
	}
	h := merged.Histogram("fleet/rebuild_window_ns")
	if h.Count != windows {
		t.Errorf("merged rebuild windows = %d, want %d", h.Count, windows)
	}
	if h.Count > 0 && (h.P50 < h.Min || h.P99 > h.Max) {
		t.Errorf("merged quantiles out of range: %+v", h)
	}

	// Events totals propagate to the campaign.
	var events uint64
	for _, res := range out.Results {
		events += res.Report.Events
	}
	if out.Events != events || out.Events == 0 {
		t.Errorf("campaign events = %d, want %d (nonzero)", out.Events, events)
	}
}

// TestTraceCapKeepsLastEvents runs the observed RAID-5 mixed workload
// (four 8 GB members, 50% reads, four outstanding requests) with a
// 500-event trace ring: the ring must keep exactly the last 500 events
// of the same seed's uncapped run and count the rest as dropped.
func TestTraceCapKeepsLastEvents(t *testing.T) {
	run := func(traceCap int) *powerfail.Report {
		member := powerfail.ProfileA()
		member.CapacityGB = 8
		obsCfg := powerfail.DefaultObsConfig()
		obsCfg.TraceCap = traceCap
		wl := powerfail.DefaultWorkload()
		wl.MinSize, wl.MaxSize = 4<<10, 64<<10
		wl.ReadPct = 50
		wl.WSSBytes = 2 << 30
		rep, err := powerfail.Run(powerfail.Options{
			Topology:    powerfail.ArrayTopology(powerfail.RAIDConfig(powerfail.RAID5, 4, member)),
			Concurrency: 4,
			Obs:         &obsCfg,
			Seed:        1<<20 + 1,
		}, powerfail.Experiment{Name: "raid5-mixed-obs", Workload: wl, RequestsPerFault: 12, Faults: 2})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	const keep = 500
	full := run(1 << 20)
	if full.Obs.TraceDropped != 0 {
		t.Fatalf("uncapped run dropped %d events", full.Obs.TraceDropped)
	}
	events := full.ObsTrace.Events()
	total := len(events)
	if total <= 2*keep {
		t.Fatalf("run recorded %d events; the test needs well over %d to wrap the ring", total, keep)
	}
	capped := run(keep)
	if got := capped.Obs.TraceDropped; got != uint64(total-keep) {
		t.Errorf("dropped %d events, want %d", got, total-keep)
	}
	if capped.Obs.TraceEvents != keep || !reflect.DeepEqual(capped.ObsTrace.Events(), events[total-keep:]) {
		t.Errorf("capped ring kept %d events that differ from the last %d of %d", capped.ObsTrace.Len(), keep, total)
	}
}
