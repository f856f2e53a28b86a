package obs

import (
	"reflect"
	"runtime"
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

func traceEvent(i int) Event {
	return Event{At: sim.Time(i), Kind: KindInstant, Comp: "c", Name: "e", Value: int64(i)}
}

// TestTraceMatchesReference checks the chunked ring against a drop-front
// slice at caps around the chunk size, after batches that leave the
// event count below, at and far past the cap.
func TestTraceMatchesReference(t *testing.T) {
	for _, limit := range []int{1, traceChunk - 1, traceChunk, traceChunk + 1, 3*traceChunk + 5, DefaultTraceCap} {
		tr := NewTrace(limit)
		ref := &refRing{limit: limit}
		total := 0
		for _, upTo := range []int{0, 1, limit / 2, limit - 1, limit, limit + 1, limit + traceChunk + 3, 2*limit + 7, 5*limit + traceChunk + 1} {
			for ; total < upTo; total++ {
				tr.Record(traceEvent(total))
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
// observability Set allocates a header, not the ring, and Record
// allocates only when it opens a chunk.
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
	for i := 0; i < 3*limit; i++ {
		runtime.ReadMemStats(&m0)
		tr.Record(traceEvent(i))
		runtime.ReadMemStats(&m1)
		allocs := m1.Mallocs - m0.Mallocs
		opens := i < limit && i%traceChunk == 0
		if opens && allocs == 0 || !opens && allocs != 0 {
			t.Fatalf("event %d (limit %d) made %d allocations; want some only when a chunk opens", i, limit, allocs)
		}
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

// BenchmarkTraceRecord times recording: "fill" records 4096 events (about
// one observed RAID-5 experiment) into a fresh default-cap ring per op,
// so it carries the chunk allocations; "wrap" records one event into a
// full ring, the steady state that overwrites the oldest event.
func BenchmarkTraceRecord(b *testing.B) {
	b.Run("fill", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			tr := NewTrace(DefaultTraceCap)
			for i := range 4096 {
				tr.Record(traceEvent(i))
			}
		}
	})
	b.Run("wrap", func(b *testing.B) {
		tr := NewTrace(3*traceChunk + 5)
		for i := range 3*traceChunk + 5 {
			tr.Record(traceEvent(i))
		}
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			tr.Record(traceEvent(i))
			i++
		}
	})
}
