package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"powerfail/internal/sim"
)

// chromeNames are the strings generated events draw their component and
// name from: plain ones, and ones that need JSON escaping (HTML-unsafe
// bytes, quotes, control bytes, U+2028/U+2029, invalid UTF-8).
var chromeNames = []string{
	"inflight", "W", "psu", "g0/bay1 healthy>degraded", "", "é-ü",
	"<rack&pdu>", `say "hi"`, `back\slash`, "tab\tnew\nline\r", "\b\f\x01\x1f\x7f",
	"sep\u2028par\u2029", "bad\xffutf8\xc3", "\xe2\x80", "emoji \U0001F50C",
}

// genProcs builds a random export: up to five processes, one of them
// sometimes empty, events of every kind (and one unknown kind) with many
// ties at one instant, zero, positive and negative durations, and one
// process taken from a ring that wrapped.
func genProcs(rng *rand.Rand) []Process {
	procs := make([]Process, rng.Intn(6))
	for i := range procs {
		procs[i].Name = chromeNames[rng.Intn(len(chromeNames))]
		n := rng.Intn(200)
		if rng.Intn(4) == 0 {
			n = 0
		}
		for range n {
			procs[i].Events = append(procs[i].Events, genEvent(rng))
		}
	}
	if len(procs) > 0 && rng.Intn(2) == 0 {
		tr := NewTrace(1 + rng.Intn(2*traceChunk))
		for range rng.Intn(4 * traceChunk) {
			tr.Record(genEvent(rng))
		}
		procs[rng.Intn(len(procs))].Events = tr.Events()
	}
	return procs
}

func genEvent(rng *rand.Rand) Event {
	e := Event{
		Kind:  Kind(rng.Intn(int(KindBlockIO) + 2)),
		Comp:  chromeNames[rng.Intn(len(chromeNames))],
		Name:  chromeNames[rng.Intn(len(chromeNames))],
		Value: rng.Int63n(5),
	}
	switch rng.Intn(4) {
	case 0:
		e.At = sim.Time(rng.Intn(8)) // ties
	case 1:
		e.At = sim.Time(rng.Int63())
	default:
		e.At = sim.Time(rng.Int63n(1e12))
	}
	switch rng.Intn(4) {
	case 0:
		e.Dur = sim.Duration(rng.Int63n(1e9))
	case 1:
		e.Dur = -sim.Duration(rng.Int63n(1e6))
	}
	if rng.Intn(8) == 0 {
		e.Value = rng.Int63() - rng.Int63()
	}
	return e
}

func chromeBytes(t testing.TB, write func(*bytes.Buffer) error) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := write(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkChromeMatchesReference fails t unless the streaming exporter and
// the encoding/json reference write the same bytes for procs.
func checkChromeMatchesReference(t *testing.T, procs []Process) {
	t.Helper()
	got := chromeBytes(t, func(b *bytes.Buffer) error { return WriteChromeTrace(b, procs) })
	want := chromeBytes(t, func(b *bytes.Buffer) error { return refWriteChromeTrace(b, procs) })
	if !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("exports differ at byte %d of %d/%d:\n got  %q\n want %q",
			i, len(got), len(want), got[lo:min(len(got), i+80)], want[lo:min(len(want), i+80)])
	}
}

// TestChromeTraceMatchesReference compares the streaming exporter with
// the encoding/json reference byte for byte over generated exports.
func TestChromeTraceMatchesReference(t *testing.T) {
	checkChromeMatchesReference(t, nil)
	checkChromeMatchesReference(t, []Process{{Name: "empty"}})
	for seed := int64(1); seed <= 300; seed++ {
		checkChromeMatchesReference(t, genProcs(rand.New(rand.NewSource(seed))))
	}
	// Timestamps at the int64 extremes and one nanosecond.
	var edge []Event
	for _, at := range []int64{0, 1, -1, 999, math.MaxInt64, math.MinInt64} {
		for k := range KindBlockIO + 1 {
			edge = append(edge, Event{At: sim.Time(at), Dur: sim.Duration(at), Kind: k, Comp: "c", Name: "n", Value: at})
		}
	}
	checkChromeMatchesReference(t, []Process{{Name: "edge", Events: edge}})
}

// TestAppendMicrosMatchesJSON pins the timestamp formatter to
// encoding/json's float formatting on both sides of its 1e15 ns cut, of
// both signs and at every magnitude of an int64.
func TestAppendMicrosMatchesJSON(t *testing.T) {
	ns := []int64{0, 1, 10, 100, 999, 1000, 1001, 1010, 1100, 123456789, 1e15 - 1, 1e15, 1e15 + 1, 1<<53 - 1, 1 << 53, math.MaxInt64, -1, -1000, math.MinInt64}
	rng := rand.New(rand.NewSource(1))
	for range 20000 {
		v := rng.Int63n(int64(math.Pow10(1 + rng.Intn(18))))
		ns = append(ns, v, v/1000*1000, -v)
	}
	for _, v := range ns {
		want, err := json.Marshal(usOf(v))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendMicros(nil, v); string(got) != string(want) {
			t.Fatalf("%d ns: %s, encoding/json gives %s", v, got, want)
		}
	}
}

// TestChromeTraceStreams checks an export far larger than one buffer
// against the reference, and that a failing writer's error comes back.
func TestChromeTraceStreams(t *testing.T) {
	procs := benchProcs()
	checkChromeMatchesReference(t, procs)

	full := chromeBytes(t, func(b *bytes.Buffer) error { return WriteChromeTrace(b, procs) })
	if len(full) < 4*chromeFlushAt {
		t.Fatalf("export of %d bytes does not span several buffers", len(full))
	}
	for _, limit := range []int{0, chromeFlushAt, len(full) - 1} {
		w := &failingWriter{limit: limit}
		if err := WriteChromeTrace(w, procs); !errors.Is(err, errWriteFailed) {
			t.Fatalf("writer failing after %d bytes: error %v, want %v", limit, err, errWriteFailed)
		}
	}
}

var errWriteFailed = errors.New("write failed")

// failingWriter accepts limit bytes, then fails every write.
type failingWriter struct{ limit, n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		return 0, errWriteFailed
	}
	w.n += len(p)
	return len(p), nil
}

// FuzzChromeTrace drives the streaming exporter and the reference with
// the same events, built from a name, a component and a script of bytes
// (four per event: kind and process break, instant, duration, value).
func FuzzChromeTrace(f *testing.F) {
	f.Add("inflight", "blockdev", []byte{6, 1, 0, 3, 7, 1, 9, 4})
	f.Add("<a&b>", `"q"`, []byte{2, 0, 0, 1, 2, 0, 0, 0, 0x81, 5, 0, 2})
	f.Add("\u2028\u2029", "bad\xff", []byte{3, 4, 4, 4, 1, 4, 0, 4, 0, 4, 200, 4})
	f.Add("", "", []byte{})
	f.Add("x\x00y", "c", []byte{9, 255, 255, 255, 0x85, 0, 128, 7})
	f.Fuzz(func(t *testing.T, name, comp string, script []byte) {
		procs := []Process{{Name: name}}
		for i := 0; i+4 <= len(script); i += 4 {
			b := script[i : i+4]
			if b[0]&0x80 != 0 {
				procs = append(procs, Process{Name: comp})
			}
			p := &procs[len(procs)-1]
			e := Event{
				Kind:  Kind(b[0] & 0x0f),
				At:    sim.Time(int64(b[1]) - 16),
				Dur:   sim.Duration(int64(b[2])-64) * 1000,
				Comp:  comp,
				Name:  name,
				Value: int64(int8(b[3])),
			}
			if b[0]&0x40 != 0 {
				e.Comp, e.Name = name, comp
			}
			p.Events = append(p.Events, e)
		}
		checkChromeMatchesReference(t, procs)
		if out := chromeBytes(t, func(b *bytes.Buffer) error { return WriteChromeTrace(b, procs) }); !json.Valid(out) {
			t.Fatalf("export is not valid JSON: %q", out)
		}
	})
}

// benchProcs is a fixed export of 65,536 events over eight processes,
// shaped like a traced experiment's: queue-depth samples, block-IO spans
// stamped before they were recorded, power edges and state transitions.
func benchProcs() []Process {
	rng := rand.New(rand.NewSource(1))
	procs := make([]Process, 8)
	for p := range procs {
		procs[p].Name = "fig8/item"
		tr := NewTrace(0)
		at := sim.Time(0)
		for i := 0; i < 8192; i++ {
			at += sim.Time(rng.Intn(50_000))
			switch i % 8 {
			case 0, 1, 2, 3:
				tr.Record(Event{At: at, Kind: KindQueueDepth, Comp: "blockdev", Name: "inflight", Value: int64(rng.Intn(32))})
			case 4, 5:
				tr.Record(Event{At: at - sim.Time(rng.Intn(200_000)), Dur: sim.Duration(rng.Intn(200_000)), Kind: KindBlockIO, Comp: "blk", Name: "W", Value: int64(i)})
			case 6:
				tr.Record(Event{At: at, Kind: KindPower, Comp: "power", Name: "psu", Value: int64(i / 8 % 2)})
			default:
				tr.Record(Event{At: at, Kind: KindState, Comp: "fleet", Name: "g0/bay1 healthy>degraded"})
			}
		}
		procs[p].Events = tr.Events()
	}
	return procs
}

// BenchmarkWriteChromeTrace exports a fixed 64k-event trace over eight
// processes to a discarding writer.
func BenchmarkWriteChromeTrace(b *testing.B) {
	procs := benchProcs()
	b.ReportAllocs()
	for b.Loop() {
		if err := WriteChromeTrace(io.Discard, procs); err != nil {
			b.Fatal(err)
		}
	}
}
