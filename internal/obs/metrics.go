package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"

	"powerfail/internal/sim"
)

// Gauge tracks a last-set value and the maximum ever set.
type Gauge struct {
	v, max int64
	set    bool
}

// Set records the gauge's current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	if !g.set || v > g.max {
		g.max = v
	}
	g.set = true
	g.v = v
}

// Value returns the last-set value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the maximum value ever set (0 for nil).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Histogram bucket layout: values 0..7 get exact buckets; past that each
// power-of-two octave is split into 4 logarithmic sub-buckets (relative
// bucket width 12.5–25%), which is plenty for p50/p95/p99 on latency
// data while keeping the bucket count fixed and merges trivial.
const (
	histExact   = 8 // values < histExact get exact unit buckets
	histSubBits = 2 // sub-buckets per octave = 1<<histSubBits
	numBuckets  = histExact + (64-histSubBits-1)*(1<<histSubBits)
)

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histExact {
		return int(u)
	}
	o := bits.Len64(u) // >= 4
	sub := (u >> (o - histSubBits - 1)) & (1<<histSubBits - 1)
	return histExact + (o-4)<<histSubBits + int(sub)
}

// bucketUpper returns the largest value mapping to bucket i (the
// representative used for quantile estimates, biased conservatively
// upward).
func bucketUpper(i int) int64 {
	if i < histExact {
		return int64(i)
	}
	i -= histExact
	o := i>>histSubBits + 4
	sub := uint64(i & (1<<histSubBits - 1))
	if o >= 64 {
		return math.MaxInt64
	}
	lo := uint64(1) << (o - 1)
	width := uint64(1) << (o - histSubBits - 1)
	upper := lo + (sub+1)*width - 1
	if upper > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(upper)
}

// Histogram is a log-bucketed distribution of int64 samples (typically
// simulated-time durations in nanoseconds). Min and max are exact;
// quantiles come from the bucket upper bounds and are therefore monotone
// in q by construction.
type Histogram struct {
	counts [numBuckets]uint64
	count  uint64
	sum    int64
	min    int64
	max    int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.counts[bucketOf(v)]++
}

// ObserveDuration records a simulated duration sample.
func (h *Histogram) ObserveDuration(d sim.Duration) { h.Observe(int64(d)) }

// Count returns the number of samples (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Quantile returns an upper bound on the q-th quantile (0 <= q <= 1),
// clamped to the exact observed max. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum uint64
	for i, n := range h.counts {
		cum += n
		if cum >= rank {
			u := bucketUpper(i)
			if u > h.max {
				u = h.max
			}
			if u < h.min {
				u = h.min
			}
			return u
		}
	}
	return h.max
}

// Merge adds o's samples into h. Merging per-shard histograms is exact:
// bucket counts, sum, count, min and max all combine losslessly, so a
// merge of N shards equals one histogram fed every sample.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil || o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i, n := range o.counts {
		h.counts[i] += n
	}
}

// Snapshot freezes the histogram into its serializable form.
func (h *Histogram) Snapshot(name string) HistogramSnapshot {
	s := HistogramSnapshot{Name: name}
	if h == nil || h.count == 0 {
		return s
	}
	s.Count = h.count
	s.Sum = h.sum
	s.Min = h.min
	s.Max = h.max
	s.P50 = h.Quantile(0.50)
	s.P95 = h.Quantile(0.95)
	s.P99 = h.Quantile(0.99)
	for i, n := range h.counts {
		if n != 0 {
			s.Buckets = append(s.Buckets, Bucket{Index: i, Count: n})
		}
	}
	return s
}

// Bucket is one occupied histogram bucket: a fixed global index (the
// layout is the same for every histogram, so snapshots merge by index)
// and its sample count.
type Bucket struct {
	Index int    `json:"i"`
	Count uint64 `json:"n"`
}

// Upper returns the largest sample value mapping to this bucket.
func (b Bucket) Upper() int64 { return bucketUpper(b.Index) }

// HistogramSnapshot is a frozen histogram: exact count/sum/min/max,
// quantile upper bounds, and the occupied buckets.
type HistogramSnapshot struct {
	Name    string   `json:"name"`
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	P50     int64    `json:"p50"`
	P95     int64    `json:"p95"`
	P99     int64    `json:"p99"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Histogram reconstructs a live histogram from the snapshot. Quantiles
// of the reconstruction match the snapshot's.
func (s HistogramSnapshot) Histogram() *Histogram {
	h := &Histogram{count: s.Count, sum: s.Sum, min: s.Min, max: s.Max}
	for _, b := range s.Buckets {
		if b.Index >= 0 && b.Index < numBuckets {
			h.counts[b.Index] = b.Count
		}
	}
	return h
}

// CounterSnapshot is one frozen counter.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one frozen gauge (last value and max).
type GaugeSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Max   int64  `json:"max"`
}

// Summary is the serializable registry snapshot that Report carries when
// observability is enabled. All slices are sorted by name, so equal
// registries summarize to equal bytes.
type Summary struct {
	Counters     []CounterSnapshot   `json:"counters,omitempty"`
	Gauges       []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms   []HistogramSnapshot `json:"histograms,omitempty"`
	TraceEvents  int                 `json:"trace_events,omitempty"`
	TraceDropped uint64              `json:"trace_dropped,omitempty"`
}

// Histogram returns the named snapshot, or a zero snapshot if absent.
func (s *Summary) Histogram(name string) HistogramSnapshot {
	if s == nil {
		return HistogramSnapshot{}
	}
	for _, h := range s.Histograms {
		if h.Name == name {
			return h
		}
	}
	return HistogramSnapshot{}
}

// Counter returns the named counter value, or 0 if absent.
func (s *Summary) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// MergeSummaries combines per-item summaries (e.g. every campaign item
// of one figure) into one: counters add, gauges keep the max, histograms
// merge bucket-exactly. Input order does not affect the result.
func MergeSummaries(parts []*Summary) *Summary {
	counters := map[string]int64{}
	gauges := map[string]GaugeSnapshot{}
	hists := map[string]*Histogram{}
	out := &Summary{}
	any := false
	for _, p := range parts {
		if p == nil {
			continue
		}
		any = true
		for _, c := range p.Counters {
			counters[c.Name] += c.Value
		}
		for _, g := range p.Gauges {
			cur, ok := gauges[g.Name]
			if !ok || g.Max > cur.Max {
				cur.Max = g.Max
			}
			cur.Name = g.Name
			cur.Value += g.Value
			gauges[g.Name] = cur
		}
		for _, h := range p.Histograms {
			if hists[h.Name] == nil {
				hists[h.Name] = &Histogram{}
			}
			hists[h.Name].Merge(h.Histogram())
		}
		out.TraceEvents += p.TraceEvents
		out.TraceDropped += p.TraceDropped
	}
	if !any {
		return nil
	}
	for name, v := range counters {
		out.Counters = append(out.Counters, CounterSnapshot{Name: name, Value: v})
	}
	for _, g := range gauges {
		out.Gauges = append(out.Gauges, g)
	}
	for name, h := range hists {
		out.Histograms = append(out.Histograms, h.Snapshot(name))
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })
	sort.Slice(out.Histograms, func(i, j int) bool { return out.Histograms[i].Name < out.Histograms[j].Name })
	return out
}

// Dump writes the summary as a deterministic text metric dump: one line
// per metric, sorted by kind then name.
func (s *Summary) Dump(w io.Writer) error {
	if s == nil {
		return nil
	}
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "gauge %s %d max=%d\n", g.Name, g.Value, g.Max); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "hist %s count=%d sum=%d min=%d p50=%d p95=%d p99=%d max=%d\n",
			h.Name, h.Count, h.Sum, h.Min, h.P50, h.P95, h.P99, h.Max); err != nil {
			return err
		}
	}
	if s.TraceEvents != 0 || s.TraceDropped != 0 {
		if _, err := fmt.Fprintf(w, "trace events=%d dropped=%d\n", s.TraceEvents, s.TraceDropped); err != nil {
			return err
		}
	}
	return nil
}

// Registry holds one run's metrics. It is not goroutine-safe: like the
// kernel it serves, a registry belongs to exactly one single-threaded
// simulation. Gauge and histogram handles for the same name are shared,
// so two queues observing into one scope feed one histogram. Counters
// are not handles: each layer keeps its own counts, registers their
// addresses with Count, and the registry reads them when it snapshots.
type Registry struct {
	counts []countRef
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// countRef is one registered count: the counter name and the address
// of the count its layer keeps.
type countRef struct {
	name string
	n    *int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// Count registers the count at n, which its layer keeps, as a source of
// the named counter. The registry reads every source at snapshot time
// and sums those of one name, so several queues observing into one
// scope report one total. Nil-safe.
func (r *Registry) Count(name string, n *int64) {
	if r == nil {
		return
	}
	r.counts = append(r.counts, countRef{name: name, n: n})
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// fill snapshots the registry into sum, sorted by name.
func (r *Registry) fill(sum *Summary) {
	counts := make(map[string]int64)
	for _, c := range r.counts {
		counts[c.name] += *c.n
	}
	for name, v := range counts {
		sum.Counters = append(sum.Counters, CounterSnapshot{Name: name, Value: v})
	}
	for name, g := range r.gauges {
		sum.Gauges = append(sum.Gauges, GaugeSnapshot{Name: name, Value: g.Value(), Max: g.Max()})
	}
	for name, h := range r.hists {
		sum.Histograms = append(sum.Histograms, h.Snapshot(name))
	}
	sort.Slice(sum.Counters, func(i, j int) bool { return sum.Counters[i].Name < sum.Counters[j].Name })
	sort.Slice(sum.Gauges, func(i, j int) bool { return sum.Gauges[i].Name < sum.Gauges[j].Name })
	sort.Slice(sum.Histograms, func(i, j int) bool { return sum.Histograms[i].Name < sum.Histograms[j].Name })
}
