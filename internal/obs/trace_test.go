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
	var first []*Event // each chunk's first slot, as it was opened
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

	room := NewTrace(limit)
	room.Record(traceEvent(0))
	if a := testing.AllocsPerRun(traceChunk/2, func() { room.Record(traceEvent(1)) }); a != 0 {
		t.Fatalf("Record into an open chunk with room allocates %v times, want 0", a)
	}
	if len(room.chunks) != 1 {
		t.Fatalf("ring with room opened %d chunks, want 1", len(room.chunks))
	}
	if a := testing.AllocsPerRun(traceChunk, func() { tr.Record(traceEvent(2)) }); a != 0 {
		t.Fatalf("Record into a full ring allocates %v times, want 0", a)
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
