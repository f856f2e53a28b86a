package obs

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"powerfail/internal/sim"
)

// refRing is the ring's law written the plain way: append, and drop the
// front once past the cap.
type refRing struct {
	limit   int
	events  []Event
	dropped uint64
}

func (r *refRing) record(e Event) {
	r.events = append(r.events, e)
	if len(r.events) > r.limit {
		r.events = r.events[1:]
		r.dropped++
	}
}

var (
	traceComps = []string{"c", "blockdev", "fleet/g0"}
	traceNames = func() []string {
		names := make([]string, 41)
		for i := range names {
			names[i] = fmt.Sprintf("e%d", i)
		}
		return names
	}()
)

func traceEvent(i int) Event {
	return Event{
		At: sim.Time(i), Dur: sim.Duration(i % 3), Kind: Kind(i % 8),
		Comp: traceComps[i%len(traceComps)], Name: traceNames[i%len(traceNames)], Value: int64(i),
	}
}

// recordVia records e through one of the three ways into a trace, picked
// by way: Trace.Record, a Scope with a name built for this call (as the
// dynamic names are), or a Marker.
func recordVia(set *Set, way int, e Event) {
	switch way % 3 {
	case 0:
		set.Trace().Record(e)
	case 1:
		set.Scope(e.Comp).Span(e.At, e.Dur, e.Kind, strings.Clone(e.Name), e.Value)
	default:
		set.Scope(e.Comp).Marker(e.Kind, e.Name).Span(e.At, e.Dur, e.Value)
	}
}

// TestTraceMatchesReference checks the chunked ring against a drop-front
// slice at caps around the chunk size, after batches that leave the
// event count below, at and far past the cap. Events are recorded through
// every path into the ring, with components, names and kinds varying, so
// Events must also give back each event's interned strings.
func TestTraceMatchesReference(t *testing.T) {
	for _, limit := range []int{1, traceChunk - 1, traceChunk, traceChunk + 1, 3*traceChunk + 5, DefaultTraceCap} {
		set := NewSet(Config{Trace: true, TraceCap: limit})
		tr := set.Trace()
		ref := &refRing{limit: limit}
		total := 0
		for _, upTo := range []int{0, 1, limit / 2, limit - 1, limit, limit + 1, limit + traceChunk + 3, 2*limit + 7, 5*limit + traceChunk + 1} {
			for ; total < upTo; total++ {
				recordVia(set, total, traceEvent(total))
				ref.record(traceEvent(total))
			}
			if tr.Len() != len(ref.events) || tr.Dropped() != ref.dropped {
				t.Fatalf("limit %d after %d events: len %d dropped %d, want %d/%d",
					limit, total, tr.Len(), tr.Dropped(), len(ref.events), ref.dropped)
			}
			got := tr.Events()
			if len(ref.events) == 0 {
				if got != nil {
					t.Fatalf("limit %d: empty ring returned %d events", limit, len(got))
				}
				continue
			}
			if !reflect.DeepEqual(got, ref.events) {
				t.Fatalf("limit %d after %d events: ring keeps values %d..%d, want %d..%d",
					limit, total, got[0].Value, got[len(got)-1].Value,
					ref.events[0].Value, ref.events[len(ref.events)-1].Value)
			}
		}
	}
}

// TestTraceAllocatesByChunk guards the ring's cost: building a full
// observability Set allocates a header, not the ring; Record opens a
// chunk exactly when the last one is full and never replaces one; and a
// Record that opens no chunk allocates nothing, whether the open chunk
// has room or the ring is full and overwrites.
func TestTraceAllocatesByChunk(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats

	const sets = 64
	keep := make([]*Set, sets)
	runtime.ReadMemStats(&m0)
	for i := range keep {
		keep[i] = NewSet(Config{Metrics: true, Trace: true, TraceCap: DefaultTraceCap})
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / sets; per >= 4<<10 {
		t.Fatalf("NewSet allocates %d B, want < 4 KiB", per)
	}

	limit := 3*traceChunk + 5
	tr := NewTrace(limit)
	var first []*record // each chunk's first slot, as it was opened
	for i := 0; i < 3*limit; i++ {
		tr.Record(traceEvent(i))
		want := (min(i+1, limit) + traceChunk - 1) / traceChunk
		if len(tr.chunks) != want {
			t.Fatalf("after event %d (limit %d): %d chunks, want %d", i, limit, len(tr.chunks), want)
		}
		if len(first) < want {
			c := tr.chunks[want-1]
			if size := min(traceChunk, limit-(want-1)*traceChunk); len(c) != size || cap(c) != size {
				t.Fatalf("chunk %d holds %d events (cap %d), want %d", want-1, len(c), cap(c), size)
			}
			first = append(first, &c[0])
		}
		for j, p := range first {
			if &tr.chunks[j][0] != p {
				t.Fatalf("after event %d: chunk %d was replaced", i, j)
			}
		}
	}

	set := NewSet(Config{Trace: true, TraceCap: limit})
	room := set.Trace()
	e := traceEvent(1)
	sc := set.Scope(e.Comp)
	mark := sc.Marker(KindQueueDepth, "inflight")
	room.Record(e)
	sc.Instant(0, KindState, "state", 0)
	mark.Instant(0, 0)
	for name, record := range map[string]func(){
		"Trace.Record":   func() { room.Record(e) },
		"Scope.Instant":  func() { sc.Instant(1, KindState, "state", 1) },
		"Marker.Instant": func() { mark.Instant(1, 1) },
	} {
		if a := testing.AllocsPerRun(traceChunk/8, record); a != 0 {
			t.Fatalf("%s into an open chunk with room allocates %v times, want 0", name, a)
		}
	}
	if len(room.chunks) != 1 {
		t.Fatalf("ring with room opened %d chunks, want 1", len(room.chunks))
	}
	if a := testing.AllocsPerRun(traceChunk, func() { tr.Record(e) }); a != 0 {
		t.Fatalf("Record into a full ring allocates %v times, want 0", a)
	}
}

// TestTraceRecordLayout pins the ring's storage: the chunk element is 32
// bytes and holds no pointers, so the garbage collector never scans a
// chunk and an event costs a quarter of a cache line.
func TestTraceRecordLayout(t *testing.T) {
	tr := NewTrace(1)
	tr.Record(traceEvent(0))
	elem := reflect.TypeOf(tr.chunks).Elem().Elem()
	if elem.Size() != 32 {
		t.Fatalf("%v is %d bytes, want 32", elem, elem.Size())
	}
	if p := pointerPath(elem); p != "" {
		t.Fatalf("%v holds a pointer at %s", elem, p)
	}
}

// pointerPath names the first part of t that holds a pointer, or "".
func pointerPath(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			if p := pointerPath(t.Field(i).Type); p != "" {
				return t.Field(i).Name + "." + p
			}
		}
		return ""
	case reflect.Array:
		if p := pointerPath(t.Elem()); p != "" {
			return "[]" + p
		}
		return ""
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return t.Kind().String()
	default:
		return ""
	}
}

// TestMarkerOff: a scope without tracing hands out the zero Marker,
// which drops its events, and a live Marker records just what
// Scope.Instant and Scope.Span record.
func TestMarkerOff(t *testing.T) {
	off := NewSet(Config{Metrics: true}).Scope("blockdev").Marker(KindQueueDepth, "inflight")
	if off != (Marker{}) || off.On() {
		t.Fatalf("marker without tracing = %+v, want the zero Marker", off)
	}
	off.Instant(1, 1)
	off.Span(1, 2, 3)

	set := NewSet(Config{Trace: true})
	sc := set.Scope("blockdev").Sub("q")
	m := sc.Marker(KindBlockIO, "W")
	m.Span(5, 7, 9)
	sc.Span(5, 7, KindBlockIO, "W", 9)
	m.Instant(6, 1)
	sc.Instant(6, KindBlockIO, "W", 1)
	ev := set.Trace().Events()
	want := []Event{
		{At: 5, Dur: 7, Kind: KindBlockIO, Comp: "blockdev/q", Name: "W", Value: 9},
		{At: 6, Kind: KindBlockIO, Comp: "blockdev/q", Name: "W", Value: 1},
	}
	if len(ev) != 4 || ev[0] != want[0] || ev[1] != want[0] || ev[2] != want[1] || ev[3] != want[1] {
		t.Fatalf("events %+v, want each of %+v twice", ev, want)
	}
}

// BenchmarkNewSet is the per-experiment cost of turning observability on
// before any event is recorded.
func BenchmarkNewSet(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		NewSet(Config{Metrics: true, Trace: true, TraceCap: DefaultTraceCap})
	}
}

// BenchmarkTraceRecord times the host queue's queue-depth instant, the
// most frequent record of a traced run, through the Marker the queue
// resolves once. "fill" records into a ring that has not wrapped, so it
// carries the chunk allocations amortized over a chunk (a fresh ring
// replaces a full one); "wrap" records into a full ring, the steady state
// that overwrites the oldest event.
func BenchmarkTraceRecord(b *testing.B) {
	depth := func(set *Set) Marker { return set.Scope("blockdev").Marker(KindQueueDepth, "inflight") }
	b.Run("fill", func(b *testing.B) {
		set := NewSet(Config{Trace: true})
		m := depth(set)
		m.Instant(0, 0) // opens the first chunk, so a 1x run allocates nothing
		b.ReportAllocs()
		i := 1
		for b.Loop() {
			if set.Trace().Len() == DefaultTraceCap {
				set = NewSet(Config{Trace: true})
				m = depth(set)
			}
			m.Instant(sim.Time(i), int64(i&31))
			i++
		}
	})
	b.Run("wrap", func(b *testing.B) {
		set := NewSet(Config{Trace: true, TraceCap: 3*traceChunk + 5})
		m := depth(set)
		for i := range 3*traceChunk + 5 {
			m.Instant(sim.Time(i), int64(i&31))
		}
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			m.Instant(sim.Time(i), int64(i&31))
			i++
		}
	})
}
