package powerfail_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"powerfail"
)

// smallItems returns a fast catalog slice for campaign tests.
func smallItems(t *testing.T, figure string, scale float64) []powerfail.CatalogItem {
	t.Helper()
	items, err := powerfail.ItemsFor(figure, scale)
	if err != nil {
		t.Fatal(err)
	}
	return items
}

// encodeReports marshals every report so runs can be compared byte for
// byte (nil reports encode as "null").
func encodeReports(t *testing.T, out *powerfail.CampaignResult) []string {
	t.Helper()
	enc := make([]string, len(out.Results))
	for i, res := range out.Results {
		b, err := json.Marshal(res.Report)
		if err != nil {
			t.Fatalf("marshal report %d: %v", i, err)
		}
		enc[i] = string(b)
	}
	return enc
}

// TestCampaignParallelDeterminism: the acceptance criterion — the same
// (BaseSeed, items) produce byte-identical reports at parallelism 1 and 8.
func TestCampaignParallelDeterminism(t *testing.T) {
	items := smallItems(t, "fig5", 0.02)

	run := func(parallelism int) *powerfail.CampaignResult {
		out, err := powerfail.NewCampaign(items,
			powerfail.WithParallelism(parallelism),
			powerfail.WithBaseSeed(42),
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
			t.Fatalf("item %d (%s) diverged between parallelism 1 and 8:\n%s\n%s",
				i, items[i].Label, seqEnc[i], parEnc[i])
		}
	}
	for i, res := range par.Results {
		if res.Item.Label != items[i].Label {
			t.Fatalf("result %d out of item order: %q", i, res.Item.Label)
		}
	}
}

// TestArrayCampaignParallelDeterminism: the multi-device acceptance
// criterion — the "array" figure produces byte-identical CampaignResults
// at parallelism 1 and 8 (every member platform is rebuilt per item from
// the item seed, so scheduling never leaks into the reports).
func TestArrayCampaignParallelDeterminism(t *testing.T) {
	items := smallItems(t, "array", 0.02)
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
			t.Fatalf("array item %d (%s) diverged between parallelism 1 and 8:\n%s\n%s",
				i, items[i].Label, seqEnc[i], parEnc[i])
		}
		if seq.Results[i].Report.DataLosses() > 0 {
			anyLoss = true
		}
		if len(seq.Results[i].Report.Members) == 0 {
			t.Fatalf("array item %d (%s): no per-member attribution", i, items[i].Label)
		}
	}
	if !anyLoss {
		t.Fatal("no array point lost data — correlated faults not biting")
	}
}

// TestCampaignBaseSeedOverrides: WithBaseSeed reseeds items by index, so
// two base seeds give different reports and the same base seed repeats.
func TestCampaignBaseSeedOverrides(t *testing.T) {
	items := smallItems(t, "seqrand", 0.02)
	run := func(seed uint64) []string {
		out, err := powerfail.NewCampaign(items,
			powerfail.WithParallelism(2),
			powerfail.WithBaseSeed(seed),
		).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return encodeReports(t, out)
	}
	a, b, c := run(7), run(7), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same base seed diverged at item %d", i)
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different base seeds produced identical campaigns (suspicious)")
	}
	// Reseeding must not mutate the caller's items.
	if items[0].Opts.Seed != 700 {
		t.Fatalf("caller's item seed mutated to %d", items[0].Opts.Seed)
	}
}

// TestCampaignCancellation: a cancelled context returns promptly with
// partial results — every item present, unrun ones marked cancelled.
func TestCampaignCancellation(t *testing.T) {
	// Plenty of items so cancellation lands mid-campaign.
	items := smallItems(t, "window", 0.02)
	ctx, cancel := context.WithCancel(context.Background())

	var once sync.Once
	campaign := powerfail.NewCampaign(items,
		powerfail.WithParallelism(2),
		powerfail.WithProgress(func(powerfail.CatalogResult) {
			once.Do(cancel)
		}))

	start := time.Now()
	out, err := campaign.Run(ctx)
	elapsed := time.Since(start)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out.Results) != len(items) {
		t.Fatalf("results %d, want %d", len(out.Results), len(items))
	}
	if out.Cancelled == 0 {
		t.Fatal("no items recorded as cancelled")
	}
	if out.Completed+out.Failed+out.Cancelled != out.Items {
		t.Fatalf("totals do not add up: %+v", out)
	}
	for _, res := range out.Results {
		if res.Err == nil && res.Report == nil {
			t.Fatalf("%s: neither report nor error", res.Item.Label)
		}
	}
	// "Promptly": the remaining ~20 items would take far longer than one.
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation took %s", elapsed)
	}
}

// TestCampaignFailFast: the first item error cancels the rest and is
// returned from Run.
func TestCampaignFailFast(t *testing.T) {
	items := smallItems(t, "fig6", 0.01)
	items[0].Spec.Faults = -1 // fails validation instantly
	run := func(workers int) *powerfail.CampaignResult {
		t.Helper()
		out, err := powerfail.NewCampaign(items,
			powerfail.WithFailFast(),
			powerfail.WithParallelism(workers),
		).Run(context.Background())
		if err == nil {
			t.Fatal("fail-fast campaign returned nil error")
		}
		if errors.Is(err, context.Canceled) {
			t.Fatalf("fail-fast returned the cancellation, not the cause: %v", err)
		}
		if out.Results[0].Err == nil {
			t.Fatal("broken item carries no error")
		}
		if out.Failed != 1 {
			t.Fatalf("%d workers: failed = %d, want 1", workers, out.Failed)
		}
		return out
	}
	// One worker cancels before it takes another item.
	if out := run(1); out.Cancelled != len(items)-1 {
		t.Fatalf("cancelled = %d, want %d", out.Cancelled, len(items)-1)
	}
	// With two, the other worker may be running item 1 when item 0 fails,
	// and may finish it; nothing later starts.
	if out := run(2); out.Completed+out.Cancelled != len(items)-1 || out.Completed > 1 {
		t.Fatalf("2 workers: completed %d, cancelled %d; want %d together, at most 1 completed",
			out.Completed, out.Cancelled, len(items)-1)
	}

	// Without fail-fast the same catalog keeps going.
	out, err := powerfail.NewCampaign(items).Run(context.Background())
	if err != nil {
		t.Fatalf("non-fail-fast campaign errored: %v", err)
	}
	if out.Completed != len(items)-1 || out.Failed != 1 {
		t.Fatalf("completed=%d failed=%d, want %d/1", out.Completed, out.Failed, len(items)-1)
	}
}

// TestCampaignAggregation: figure summaries add up to the per-item
// reports and carry a sane confidence interval.
func TestCampaignAggregation(t *testing.T) {
	items := smallItems(t, "fig5", 0.02)
	calls := 0
	out, err := powerfail.NewCampaign(items,
		powerfail.WithParallelism(4),
		powerfail.WithProgress(func(powerfail.CatalogResult) { calls++ }),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(items) {
		t.Fatalf("progress calls = %d, want %d", calls, len(items))
	}
	if len(out.Figures) != 1 || out.Figures[0].Figure != "fig5" {
		t.Fatalf("figures: %+v", out.Figures)
	}
	s := out.Figures[0]
	var faults, data, fwa, ioerr int
	for _, res := range out.Results {
		faults += res.Report.Faults
		data += res.Report.Counters.DataFailures
		fwa += res.Report.Counters.FWA
		ioerr += res.Report.Counters.IOErrors
	}
	if s.Faults != faults || s.DataFailures != data || s.FWA != fwa || s.IOErrors != ioerr {
		t.Fatalf("summary %+v does not match report sums (%d,%d,%d,%d)", s, faults, data, fwa, ioerr)
	}
	if s.LossPerFault.N != len(items) || s.LossPerFault.CI95 < 0 {
		t.Fatalf("loss stat: %+v", s.LossPerFault)
	}
	if s.LossPerFault.Min > s.LossPerFault.Mean || s.LossPerFault.Mean > s.LossPerFault.Max {
		t.Fatalf("stat ordering: %+v", s.LossPerFault)
	}
	// The half-width is Student's t·s/√n; fig5 has five items, so t has
	// four degrees of freedom.
	if len(items) != 5 {
		t.Fatalf("fig5 has %d items, want 5", len(items))
	}
	var mean, ss float64
	for _, res := range out.Results {
		mean += res.Report.DataLossPerFault
	}
	mean /= 5
	for _, res := range out.Results {
		d := res.Report.DataLossPerFault - mean
		ss += d * d
	}
	want := 2.776 * math.Sqrt(ss/4) / math.Sqrt(5)
	if want == 0 || math.Abs(s.LossPerFault.CI95-want) > 1e-12*want {
		t.Fatalf("ci95 = %v, want %v", s.LossPerFault.CI95, want)
	}
	if out.SimTime <= 0 {
		t.Fatal("no simulated time accumulated")
	}
}

// TestCampaignJSON: the campaign result marshals into the machine-readable
// document the -json flag emits.
func TestCampaignJSON(t *testing.T) {
	items := smallItems(t, "seqrand", 0.02)
	out, err := powerfail.NewCampaign(items,
		powerfail.WithParallelism(2),
		powerfail.WithBaseSeed(3),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []struct {
			Figure string          `json:"figure"`
			Label  string          `json:"label"`
			Seed   uint64          `json:"seed"`
			Report json.RawMessage `json:"report"`
			Error  string          `json:"error"`
		} `json:"results"`
		Figures []struct {
			Figure       string `json:"figure"`
			LossPerFault struct {
				N    int     `json:"n"`
				Mean float64 `json:"mean"`
			} `json:"loss_per_fault"`
		} `json:"figures"`
		Items     int `json:"items"`
		Completed int `json:"completed"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Items != len(items) || doc.Completed != len(items) {
		t.Fatalf("items=%d completed=%d, want %d", doc.Items, doc.Completed, len(items))
	}
	for i, res := range doc.Results {
		if res.Figure != "seqrand" || res.Label == "" || len(res.Report) == 0 || res.Error != "" {
			t.Fatalf("result %d: %+v", i, res)
		}
		if res.Seed == 0 {
			t.Fatalf("result %d: base-seed derivation missing from JSON", i)
		}
		var rep struct {
			Name     string `json:"name"`
			Faults   int    `json:"faults"`
			Counters struct {
				DataFailures *int `json:"data_failures"`
			} `json:"counters"`
			Workload struct{} `json:"-"`
		}
		if err := json.Unmarshal(res.Report, &rep); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if rep.Name == "" || rep.Faults == 0 || rep.Counters.DataFailures == nil {
			t.Fatalf("report %d missing fields: %s", i, res.Report)
		}
	}
	if len(doc.Figures) != 1 || doc.Figures[0].LossPerFault.N != len(items) {
		t.Fatalf("figures: %+v", doc.Figures)
	}
}

// TestRunContextCompat: RunContext surfaces cancellation, Run still works
// without one.
func TestRunContextCompat(t *testing.T) {
	prof := powerfail.ProfileA()
	prof.CapacityGB = 8
	w := powerfail.DefaultWorkload()
	w.WSSBytes = 1 << 30
	spec := powerfail.Experiment{
		Name: "ctx", Workload: w, Faults: 3, RequestsPerFault: 8,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := powerfail.RunContext(ctx, powerfail.Options{Seed: 1, Profile: prof}, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on cancelled ctx: %v", err)
	}
	rep, err := powerfail.RunContext(context.Background(), powerfail.Options{Seed: 1, Profile: prof}, spec)
	if err != nil || rep.Faults != 3 {
		t.Fatalf("RunContext: rep=%+v err=%v", rep, err)
	}
}

// TestCacheCampaignParallelDeterminism: the "cache" figure is
// byte-deterministic at parallelism 1 vs 8. This pins the crash-recovery
// path of the write-back cache, whose free-slot reclamation once walked a
// map and made post-fault slot allocation (and with it whole reports)
// depend on iteration order.
func TestCacheCampaignParallelDeterminism(t *testing.T) {
	items := smallItems(t, "cache", 0.02)
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
			t.Fatalf("cache item %d (%s) diverged between parallelism 1 and 8:\n%s\n%s",
				i, items[i].Label, seqEnc[i], parEnc[i])
		}
		if n := seq.Results[i].Report.HostStats.TimedOut; n != 0 {
			t.Fatalf("cache item %d (%s): %d requests timed out", i, items[i].Label, n)
		}
	}
}
