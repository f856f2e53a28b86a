package powerfail

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"powerfail/internal/core"
	"powerfail/internal/obs"
	"powerfail/internal/runstore"
	"powerfail/internal/sim"
)

// A Campaign executes a set of catalog items — typically one of the
// paper's figures, or the whole catalog — over a bounded pool of workers.
// Each item builds its own independent single-threaded Platform, so
// cross-experiment parallelism preserves per-experiment determinism:
// results are identical whatever the parallelism or scheduling order.
//
//	c := powerfail.NewCampaign(powerfail.Fig5Items(0.2),
//	    powerfail.WithParallelism(8),
//	    powerfail.WithProgress(func(res powerfail.CatalogResult) {
//	        log.Printf("done %s/%s", res.Item.Figure, res.Item.Label)
//	    }))
//	out, err := c.Run(ctx)
//
// Campaigns are single-use: build a new one per Run call.
type Campaign struct {
	items []CatalogItem
	cfg   campaignConfig
}

type campaignConfig struct {
	parallelism int
	progress    func(CatalogResult)
	baseSeed    uint64
	reseed      bool
	failFast    bool
	journalPath string
	manifest    runstore.Manifest
	resume      *runstore.Archive
	shard       int
	shardCount  int
}

// CampaignOption configures a Campaign.
type CampaignOption func(*campaignConfig)

// WithParallelism sets the number of worker goroutines (default 1: items
// run one after another in item order). Values above the item count are
// clamped; values below 1 select 1.
func WithParallelism(n int) CampaignOption {
	return func(c *campaignConfig) { c.parallelism = n }
}

// WithProgress streams each CatalogResult to fn as its experiment
// completes. Calls are serialized on the Run goroutine and arrive in
// completion order, which under parallelism differs from item order; the
// returned CampaignResult is always in item order.
func WithProgress(fn func(CatalogResult)) CampaignOption {
	return func(c *campaignConfig) { c.progress = fn }
}

// WithBaseSeed overrides every item's Options.Seed with a seed derived
// from (s, item index) by a splitmix64-style mix. Derivation depends only
// on the index, never on scheduling, so a (BaseSeed, items) pair fully
// determines the campaign's reports at any parallelism.
func WithBaseSeed(s uint64) CampaignOption {
	return func(c *campaignConfig) { c.baseSeed, c.reseed = s, true }
}

// WithFailFast cancels the remaining items after the first experiment
// error and makes Run return that error. Without it, Run records item
// errors in the per-item results and keeps going.
func WithFailFast() CampaignOption {
	return func(c *campaignConfig) { c.failFast = true }
}

// WithJournal journals the run to an archive at path: the manifest m is
// written when Run starts (the campaign fills its item list with each
// item's ItemKey identity), one record is appended as each item
// completes, and a final record with the merged per-figure aggregates is
// written only when every item ran. An interrupted run therefore leaves a
// valid, resumable archive holding every item that had finished.
func WithJournal(path string, m RunManifest) CampaignOption {
	return func(c *campaignConfig) { c.journalPath, c.manifest = path, m }
}

// WithShard restricts the campaign to the items whose global index is
// congruent to shard modulo count (0 ≤ shard < count). Every shard sees
// the full item list — indices, derived seeds and item keys are those of
// the unsharded campaign — and executes a disjoint subset of it, so N
// journaled shard runs together produce exactly the item records an
// unsharded journaled run would. Merging the N archives
// (MergeRunArchives) and resuming a full campaign from the merge
// reproduces the unsharded output byte for byte. A count of zero (the
// default) disables sharding; shards past the item count simply run
// zero items and journal an empty, valid archive.
func WithShard(shard, count int) CampaignOption {
	return func(c *campaignConfig) { c.shard, c.shardCount = shard, count }
}

// WithResume reuses the journaled reports of a prior run loaded from a:
// items whose ItemKey matches a completed (non-error) record are not
// re-executed — the archived report bytes are decoded for aggregation and
// re-emitted verbatim in the campaign's JSON, so a resumed campaign's
// output is byte-identical to an uninterrupted run of the same items.
// Errored, missing or unparseable records run normally.
func WithResume(a *RunArchive) CampaignOption {
	return func(c *campaignConfig) { c.resume = a }
}

// NewCampaign plans a campaign over items. The item slice is copied, so
// later mutation of the caller's slice does not affect the campaign.
func NewCampaign(items []CatalogItem, opts ...CampaignOption) *Campaign {
	c := &Campaign{items: append([]CatalogItem(nil), items...)}
	c.cfg.parallelism = 1
	for _, o := range opts {
		o(&c.cfg)
	}
	if c.cfg.reseed {
		for i := range c.items {
			c.items[i].Opts.Seed = deriveSeed(c.cfg.baseSeed, i)
		}
	}
	return c
}

// deriveSeed mixes a base seed and an item index into an experiment seed
// (splitmix64 finalizer over base + (i+1)·golden-gamma).
func deriveSeed(base uint64, i int) uint64 {
	z := base + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stat summarizes a sample of per-item values: mean with a 95% confidence
// half-width (Student t with n-1 degrees of freedom, t·s/√n, as
// runstore.MeanCI95), plus the extremes.
type Stat struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	// CI95 is the 95% confidence half-width of the mean; the interval is
	// Mean ± CI95. Zero when fewer than two samples exist.
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

func newStat(samples []float64) Stat {
	s := Stat{N: len(samples)}
	if s.N == 0 {
		return s
	}
	s.Mean, s.CI95, _ = runstore.MeanCI95(samples)
	s.Min, s.Max = slices.Min(samples), slices.Max(samples)
	return s
}

// FigureSummary aggregates the completed experiments of one figure.
type FigureSummary struct {
	Figure    string `json:"figure"`
	Items     int    `json:"items"`
	Completed int    `json:"completed"`

	Faults       int `json:"faults"`
	DataFailures int `json:"data_failures"`
	FWA          int `json:"fwa"`
	IOErrors     int `json:"io_errors"`

	// LossPerFault summarizes the per-item data-loss-per-fault rates
	// (the y-axis of most of the paper's figures).
	LossPerFault Stat `json:"loss_per_fault"`

	SimTime sim.Duration `json:"sim_ns"`

	// Obs merges the per-item observability summaries of the figure's
	// completed experiments (counters add, histograms merge bucket-exact).
	// It is nil unless items ran with Options.Obs enabled, keeping default
	// campaign JSON byte-identical to pre-observability output.
	Obs *obs.Summary `json:"obs,omitempty"`
}

// CampaignResult is the outcome of Campaign.Run: every item's result in
// item order, plus per-figure aggregation and totals.
type CampaignResult struct {
	// Results holds one entry per item, in item order regardless of
	// scheduling. Items the campaign never ran (cancellation, fail-fast)
	// carry the cancellation error and a nil report.
	Results []CatalogResult `json:"results"`
	// Figures aggregates completed results per figure, in first-appearance
	// item order.
	Figures []FigureSummary `json:"figures"`

	Items     int `json:"items"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`

	// WallTime is real elapsed time; SimTime sums the simulated duration
	// of completed experiments (the speed-up ratio of the platform).
	WallTime time.Duration `json:"wall_ns"`
	SimTime  sim.Duration  `json:"sim_ns"`

	// Events sums the simulator events processed by completed experiments;
	// EventsPerSec divides them by WallTime. Both are process telemetry
	// (live progress, benchmarking) and excluded from JSON so campaign
	// outputs stay machine-independent.
	Events       uint64  `json:"-"`
	EventsPerSec float64 `json:"-"`
}

// Run executes the campaign under ctx and returns when every item has
// either completed or been cancelled. Experiment errors are recorded per
// item and do not abort the campaign unless WithFailFast was given.
// Cancelling ctx stops in-flight experiments at their next poll point and
// marks unstarted items with the context's error; the partial
// CampaignResult is returned together with ctx.Err().
func (c *Campaign) Run(ctx context.Context) (*CampaignResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()

	if c.cfg.shardCount > 0 && (c.cfg.shard < 0 || c.cfg.shard >= c.cfg.shardCount) {
		return nil, fmt.Errorf("powerfail: shard %d out of range for count %d", c.cfg.shard, c.cfg.shardCount)
	}
	// sel holds the global indices this run executes: everything, or the
	// shard's congruence class. Global indices keep seeds, keys and
	// journal records identical to the unsharded campaign's.
	sel := make([]int, 0, len(c.items))
	for i := range c.items {
		if c.cfg.shardCount <= 1 || i%c.cfg.shardCount == c.cfg.shard {
			sel = append(sel, i)
		}
	}
	pos := make([]int, len(c.items)) // global index → position in sel/Results
	for p, gi := range sel {
		pos[gi] = p
	}

	// Item keys are needed for both journaling (manifest + records) and
	// resume lookup; computed once, outside the workers.
	var keys []string
	if c.cfg.journalPath != "" || c.cfg.resume != nil {
		keys = make([]string, len(c.items))
		for i := range c.items {
			keys[i] = ItemKey(c.items[i])
		}
	}
	var jw *runstore.Writer
	if c.cfg.journalPath != "" {
		m := c.cfg.manifest
		if m.GoVersion == "" {
			m.GoVersion = runtime.Version()
		}
		if c.cfg.reseed {
			m.BaseSeed = c.cfg.baseSeed
		}
		if c.cfg.shardCount > 0 {
			m.Shard, m.ShardCount = c.cfg.shard, c.cfg.shardCount
		}
		// The manifest always lists the full campaign — a shard archive
		// documents which subset of it the shard executed.
		m.Items = make([]runstore.ItemSpec, len(c.items))
		for i, it := range c.items {
			m.Items[i] = runstore.ItemSpec{
				Index: i, Figure: it.Figure, Label: it.Label,
				Seed: it.Opts.Seed, X: it.X, Key: keys[i],
			}
		}
		var err error
		jw, err = runstore.Create(c.cfg.journalPath, m)
		if err != nil {
			return nil, err
		}
	}

	workers := c.cfg.parallelism
	if workers < 1 {
		workers = 1
	}
	if workers > len(sel) {
		workers = len(sel)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type indexed struct {
		idx int
		res CatalogResult
	}
	idxCh := make(chan int)
	resCh := make(chan indexed)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				it := c.items[idx]
				res := CatalogResult{Item: it}
				if rec := c.resumeRecord(keys, idx); rec != nil {
					rep := new(Report)
					if err := json.Unmarshal(rec.Report, rep); err == nil {
						res.Report, res.raw, res.Reused = rep, rec.Report, true
					}
				}
				if !res.Reused {
					if err := runCtx.Err(); err != nil {
						res.Err = err
					} else {
						t0 := time.Now()
						res.Report, res.Err = core.RunExperiment(runCtx, it.Opts, it.Spec)
						res.Wall = time.Since(t0)
					}
				}
				resCh <- indexed{idx, res}
			}
		}()
	}
	go func() {
		defer close(idxCh)
		for _, i := range sel {
			idxCh <- i
		}
	}()
	go func() {
		wg.Wait()
		close(resCh)
	}()

	out := &CampaignResult{
		Results: make([]CatalogResult, len(sel)),
		Items:   len(sel),
	}
	var firstErr error
	for r := range resCh {
		out.Results[pos[r.idx]] = r.res
		if r.res.Err != nil && firstErr == nil && !isCancellation(r.res.Err) {
			firstErr = r.res.Err
			if c.cfg.failFast {
				cancel()
			}
		}
		if jw != nil {
			c.journal(jw, r.idx, keys[r.idx], r.res)
		}
		if c.cfg.progress != nil {
			c.cfg.progress(r.res)
		}
	}

	out.WallTime = time.Since(start)
	c.aggregate(out)
	if out.WallTime > 0 {
		out.EventsPerSec = float64(out.Events) / out.WallTime.Seconds()
	}
	var journalErr error
	if jw != nil {
		if ctx.Err() == nil && out.Cancelled == 0 {
			if figs, err := json.Marshal(out.Figures); err == nil {
				jw.Finalize(runstore.Final{
					Items:     out.Items,
					Completed: out.Completed,
					Failed:    out.Failed,
					SimNS:     int64(out.SimTime),
					Figures:   figs,
					WallNS:    int64(out.WallTime),
					EventsPS:  out.EventsPerSec,
				})
			}
		}
		journalErr = jw.Close()
	}
	switch {
	case ctx.Err() != nil:
		return out, ctx.Err()
	case c.cfg.failFast && firstErr != nil:
		return out, firstErr
	case journalErr != nil:
		return out, journalErr
	default:
		return out, nil
	}
}

// resumeRecord returns the archived record to reuse for item idx, or nil
// (no resume archive, no match, or the match errored).
func (c *Campaign) resumeRecord(keys []string, idx int) *runstore.ItemRecord {
	if c.cfg.resume == nil {
		return nil
	}
	rec := c.cfg.resume.Lookup(keys[idx])
	if rec == nil || rec.Error != "" || len(rec.Report) == 0 {
		return nil
	}
	return rec
}

// journal appends one completed item to the run archive. Cancelled items
// are not journaled — a resumed run must execute them. A report is
// journaled with its exact JSON (the archived bytes for a reused item, a
// fresh marshal otherwise), which is what resume later re-emits.
func (c *Campaign) journal(jw *runstore.Writer, idx int, key string, res CatalogResult) {
	if res.Err != nil && isCancellation(res.Err) {
		return
	}
	rec := runstore.ItemRecord{
		Index:  idx,
		Key:    key,
		Figure: res.Item.Figure,
		Label:  res.Item.Label,
		Seed:   res.Item.Opts.Seed,
	}
	switch {
	case res.Err != nil:
		rec.Error = res.Err.Error()
	case res.raw != nil:
		rec.Report = res.raw
	case res.Report != nil:
		b, err := json.Marshal(res.Report)
		if err != nil {
			rec.Error = "marshal report: " + err.Error()
		} else {
			rec.Report = b
		}
	}
	jw.Append(rec)
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// aggregate fills the totals and per-figure summaries from Results.
func (c *Campaign) aggregate(out *CampaignResult) {
	byFigure := map[string]*FigureSummary{}
	samples := map[string][]float64{}
	obsParts := map[string][]*obs.Summary{}
	var order []string
	for _, res := range out.Results {
		fig := res.Item.Figure
		s := byFigure[fig]
		if s == nil {
			s = &FigureSummary{Figure: fig}
			byFigure[fig] = s
			order = append(order, fig)
		}
		s.Items++
		switch {
		case res.Err == nil && res.Report != nil:
			out.Completed++
			s.Completed++
			rep := res.Report
			s.Faults += rep.Faults
			s.DataFailures += rep.Counters.DataFailures
			s.FWA += rep.Counters.FWA
			s.IOErrors += rep.Counters.IOErrors
			s.SimTime += rep.SimDuration
			out.SimTime += rep.SimDuration
			out.Events += rep.Events
			samples[fig] = append(samples[fig], rep.DataLossPerFault)
			obsParts[fig] = append(obsParts[fig], rep.Obs)
		case isCancellation(res.Err):
			out.Cancelled++
		default:
			out.Failed++
		}
	}
	for _, fig := range order {
		s := byFigure[fig]
		s.LossPerFault = newStat(samples[fig])
		s.Obs = obs.MergeSummaries(obsParts[fig])
		out.Figures = append(out.Figures, *s)
	}
}

// MarshalJSON renders the result with item errors as strings. A report
// loaded from a resume archive is re-emitted from its archived bytes
// (the encoder re-indents raw JSON, so indented output stays identical
// too) — byte-identity of resumed campaigns never depends on a report
// surviving an unmarshal/marshal round trip.
func (r CatalogResult) MarshalJSON() ([]byte, error) {
	var errStr string
	if r.Err != nil {
		errStr = r.Err.Error()
	}
	rep := r.raw
	if rep == nil && r.Report != nil {
		b, err := json.Marshal(r.Report)
		if err != nil {
			return nil, err
		}
		rep = b
	}
	return json.Marshal(struct {
		Figure string          `json:"figure"`
		Label  string          `json:"label"`
		X      float64         `json:"x"`
		Seed   uint64          `json:"seed"`
		Report json.RawMessage `json:"report,omitempty"`
		Error  string          `json:"error,omitempty"`
	}{
		Figure: r.Item.Figure,
		Label:  r.Item.Label,
		X:      r.Item.X,
		Seed:   r.Item.Opts.Seed,
		Report: rep,
		Error:  errStr,
	})
}
