package obs

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"powerfail/internal/sim"
)

func TestNilSafety(t *testing.T) {
	// Everything on the disabled path must be callable without panics.
	var set *Set
	sc := set.Scope("x")
	if sc.Enabled() || sc.TracingOn() {
		t.Fatal("zero scope should be disabled")
	}
	var n int64
	sc.Count("c", &n)
	sc.Gauge("g").Set(3)
	sc.Histogram("h").Observe(5)
	sc.Instant(0, KindInstant, "e", 1)
	sc.Span(0, 10, KindSpan, "s", 1)
	sc.Sub("child").Count("c", &n)
	if set.Summary() != nil || set.Trace().Events() != nil {
		t.Fatal("nil set should summarize to nil")
	}
	var cfg *Config
	if cfg.Enabled() {
		t.Fatal("nil config should be disabled")
	}
	if NewSet(Config{}) != nil {
		t.Fatal("zero config should build a nil set")
	}
}

func TestBucketLayout(t *testing.T) {
	// Bucket index must be monotone in the value and bucketUpper must be
	// the inclusive upper bound of its bucket.
	last := -1
	for _, v := range []int64{0, 1, 2, 7, 8, 9, 15, 16, 100, 1023, 1024, 1 << 20, 1 << 40, math.MaxInt64} {
		b := bucketOf(v)
		if b < last {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", v, b, last)
		}
		last = b
		if up := bucketUpper(b); v > up {
			t.Fatalf("value %d above its bucket upper %d (bucket %d)", v, up, b)
		}
		if b > 0 {
			if lowUp := bucketUpper(b - 1); v <= lowUp {
				t.Fatalf("value %d should be in bucket %d (upper %d)", v, b-1, lowUp)
			}
		}
	}
	if b := bucketOf(-5); b != 0 {
		t.Fatalf("negative values must clamp to bucket 0, got %d", b)
	}
	if b := bucketOf(math.MaxInt64); b >= numBuckets {
		t.Fatalf("max value bucket %d out of range %d", b, numBuckets)
	}
}

func TestHistogramQuantilesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := &Histogram{}
	for i := 0; i < 10000; i++ {
		h.Observe(rng.Int63n(1_000_000_000))
	}
	qs := []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	prev := int64(-1)
	for _, q := range qs {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone: q=%v gave %d < %d", q, v, prev)
		}
		prev = v
	}
	s := h.Snapshot("x")
	if !(s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
		t.Fatalf("snapshot quantiles not ordered: %+v", s)
	}
	if s.Max != h.max || s.Min != h.min {
		t.Fatal("snapshot min/max not exact")
	}
}

func TestHistogramMergeEqualsWhole(t *testing.T) {
	// Splitting one sample stream across shards and merging must equal a
	// single histogram fed every sample — bucket counts, sum, quantiles.
	rng := rand.New(rand.NewSource(42))
	whole := &Histogram{}
	shards := []*Histogram{{}, {}, {}, {}}
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(50_000_000)
		whole.Observe(v)
		shards[i%len(shards)].Observe(v)
	}
	merged := &Histogram{}
	for _, s := range shards {
		merged.Merge(s)
	}
	if !reflect.DeepEqual(merged, whole) {
		t.Fatal("merged shards differ from whole histogram")
	}
	// Snapshot → Histogram roundtrip preserves quantiles.
	back := whole.Snapshot("w").Histogram()
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if back.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("roundtrip quantile %v mismatch", q)
		}
	}
}

func TestMergeSummaries(t *testing.T) {
	mk := func(seed int64, n int) *Summary {
		set := NewSet(Config{Metrics: true})
		sc := set.Scope("dev")
		rng := rand.New(rand.NewSource(seed))
		var ops int64
		sc.Count("ops", &ops)
		for i := 0; i < n; i++ {
			ops++
			sc.Histogram("lat").Observe(rng.Int63n(1000))
		}
		sc.Gauge("depth").Set(int64(n))
		return set.Summary()
	}
	a, b := mk(1, 100), mk(2, 200)
	m := MergeSummaries([]*Summary{a, b, nil})
	if got := m.Counter("dev/ops"); got != 300 {
		t.Fatalf("merged counter = %d, want 300", got)
	}
	if h := m.Histogram("dev/lat"); h.Count != 300 {
		t.Fatalf("merged histogram count = %d, want 300", h.Count)
	}
	if MergeSummaries([]*Summary{nil, nil}) != nil {
		t.Fatal("all-nil merge should be nil")
	}
	// Merge is order-independent.
	m2 := MergeSummaries([]*Summary{b, a})
	var d1, d2 bytes.Buffer
	if err := m.Dump(&d1); err != nil {
		t.Fatal(err)
	}
	if err := m2.Dump(&d2); err != nil {
		t.Fatal(err)
	}
	if d1.String() != d2.String() {
		t.Fatal("merge result depends on input order")
	}
}

// TestCountReadsAtSnapshot: a counter is the sum of its registered
// counts at the moment of the snapshot, not at registration, and a name
// registered by several sources (queues sharing a scope) reports their
// total.
func TestCountReadsAtSnapshot(t *testing.T) {
	set := NewSet(Config{Metrics: true})
	var a, b, idle int64
	set.Scope("q").Count("n", &a)
	set.Scope("q").Count("n", &b)
	set.Scope("q").Count("idle", &idle)
	a, b = 3, 4
	s := set.Summary()
	if got := s.Counter("q/n"); got != 7 {
		t.Fatalf("q/n = %d, want 7", got)
	}
	if len(s.Counters) != 2 || s.Counters[0].Name != "q/idle" {
		t.Fatalf("counters = %+v, want q/idle (zero, still listed) then q/n", s.Counters)
	}
	a++
	if got := set.Summary().Counter("q/n"); got != 8 {
		t.Fatalf("second snapshot q/n = %d, want 8", got)
	}
}

func TestRegistryDumpDeterministic(t *testing.T) {
	build := func() *Summary {
		set := NewSet(Config{Metrics: true, Trace: true, TraceCap: 4})
		sc := set.Scope("zeta")
		four, one := int64(4), int64(1)
		sc.Count("c", &four)
		sc2 := set.Scope("alpha")
		sc2.Count("c", &one)
		sc2.Histogram("h").Observe(99)
		sc2.Gauge("g").Set(-2)
		for i := 0; i < 6; i++ {
			sc.Instant(sim.Time(i), KindInstant, "tick", int64(i))
		}
		return set.Summary()
	}
	var a, b bytes.Buffer
	if err := build().Dump(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().Dump(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("dumps differ:\n%s\n---\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "trace events=4 dropped=2") {
		t.Fatalf("ring accounting missing from dump:\n%s", a.String())
	}
	// Sorted within a metric kind: counter alpha/c precedes zeta/c.
	if strings.Index(a.String(), "counter alpha/c") > strings.Index(a.String(), "counter zeta/c") {
		t.Fatalf("dump not sorted by name:\n%s", a.String())
	}
}

func TestTraceRing(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 5; i++ {
		tr.Record(Event{At: sim.Time(i), Name: "e", Value: int64(i)})
	}
	ev := tr.Events()
	if len(ev) != 3 || tr.Dropped() != 2 {
		t.Fatalf("ring kept %d dropped %d, want 3/2", len(ev), tr.Dropped())
	}
	for i, e := range ev {
		if e.Value != int64(i+2) {
			t.Fatalf("ring order wrong: %v", ev)
		}
	}
}

func TestChromeTraceWriteValidate(t *testing.T) {
	events := []Event{
		{At: 1000, Kind: KindPower, Comp: "power", Name: "rack0", Value: 1},
		{At: 2000, Dur: 500, Kind: KindTxn, Comp: "txn", Name: "commit", Value: 17},
		{At: 2500, Kind: KindQueueDepth, Comp: "blockdev", Name: "inflight", Value: 3},
		{At: 3000, Kind: KindState, Comp: "fleet", Name: "g0/bay1 healthy>degraded"},
		{At: 100, Dur: 800, Kind: KindBlockIO, Comp: "blk", Name: "W", Value: 9},
	}
	var a, b bytes.Buffer
	procs := []Process{{Name: "item-0", Events: events}}
	if err := WriteChromeTrace(&a, procs); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, procs); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("chrome export is not deterministic")
	}
	n, err := ValidateChromeTrace(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("self-validation failed: %v\n%s", err, a.String())
	}
	// process_name + 5 thread_names + 5 events, the block IO among them.
	if n != 11 {
		t.Fatalf("validated %d events, want 11:\n%s", n, a.String())
	}
	if !strings.Contains(a.String(), `"name":"W","ph":"X"`) {
		t.Fatalf("complete block IO should render as a span:\n%s", a.String())
	}
	if _, err := ValidateChromeTrace(strings.NewReader(`{"foo":1}`)); err == nil {
		t.Fatal("missing traceEvents should fail validation")
	}
	if _, err := ValidateChromeTrace(strings.NewReader(`{"traceEvents":[{"ph":"Z","name":"x","ts":0,"pid":1}]}`)); err == nil {
		t.Fatal("unknown phase should fail validation")
	}
}
