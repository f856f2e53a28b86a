package blktrace

import (
	"bytes"
	"testing"
	"testing/quick"

	"powerfail/internal/addr"
	"powerfail/internal/racedet"
	"powerfail/internal/sim"
)

func mkEvents() []Event {
	return []Event{
		{At: 1000, Act: ActQueue, Op: OpWrite, Req: 1, Sub: -1, LPN: 100, Pages: 256},
		{At: 1000, Act: ActSplit, Op: OpWrite, Req: 1, Sub: 0, LPN: 100, Pages: 128},
		{At: 1000, Act: ActSplit, Op: OpWrite, Req: 1, Sub: 1, LPN: 228, Pages: 128},
		{At: 1100, Act: ActDispatch, Op: OpWrite, Req: 1, Sub: 0, LPN: 100, Pages: 128},
		{At: 1200, Act: ActDispatch, Op: OpWrite, Req: 1, Sub: 1, LPN: 228, Pages: 128},
		{At: 2000, Act: ActComplete, Op: OpWrite, Req: 1, Sub: 0, LPN: 100, Pages: 128},
		{At: 2500, Act: ActComplete, Op: OpWrite, Req: 1, Sub: 1, LPN: 228, Pages: 128},
	}
}

func TestAssembleComplete(t *testing.T) {
	ios := Assemble(mkEvents())
	if len(ios) != 1 {
		t.Fatalf("ios = %d", len(ios))
	}
	io := ios[0]
	if !io.Complete() {
		t.Fatal("fully completed IO not recognised")
	}
	if io.Subs != 2 || io.SubsDone != 2 {
		t.Fatalf("subs=%d done=%d", io.Subs, io.SubsDone)
	}
	if io.Q2C() != sim.Duration(1500) {
		t.Fatalf("Q2C = %v", io.Q2C())
	}
	if io.FirstDispatch != 1100 || io.LastComplete != 2500 {
		t.Fatalf("d=%v c=%v", io.FirstDispatch, io.LastComplete)
	}
}

func TestAssembleIncomplete(t *testing.T) {
	evs := mkEvents()[:6] // second sub never completes
	ios := Assemble(evs)
	if ios[0].Complete() {
		t.Fatal("incomplete IO reported complete")
	}
}

func TestAssembleErrored(t *testing.T) {
	evs := mkEvents()[:6]
	evs = append(evs, Event{At: 2600, Act: ActError, Op: OpWrite, Req: 1, Sub: 1, LPN: 228, Pages: 128})
	ios := Assemble(evs)
	if ios[0].Complete() {
		t.Fatal("errored IO reported complete")
	}
	if ios[0].SubsErrored != 1 {
		t.Fatal("error not counted")
	}
}

func TestAssembleTimeoutAndReject(t *testing.T) {
	evs := []Event{
		{At: 10, Act: ActQueue, Op: OpRead, Req: 5, Sub: -1, LPN: 1, Pages: 1},
		{At: 10, Act: ActSplit, Op: OpRead, Req: 5, Sub: 0, LPN: 1, Pages: 1},
		{At: 999, Act: ActTimeout, Op: OpRead, Req: 5, Sub: -1, LPN: 1, Pages: 1},
		{At: 20, Act: ActReject, Op: OpWrite, Req: 6, Sub: -1, LPN: 2, Pages: 1},
	}
	ios := Assemble(evs)
	if len(ios) != 2 {
		t.Fatalf("ios = %d", len(ios))
	}
	if !ios[0].TimedOut || ios[0].Complete() {
		t.Fatal("timeout state wrong")
	}
	if !ios[1].Rejected {
		t.Fatal("reject state wrong")
	}
}

func TestAssembleOrdersByQueueTime(t *testing.T) {
	evs := []Event{
		{At: 50, Act: ActQueue, Op: OpRead, Req: 2, Sub: -1},
		{At: 10, Act: ActQueue, Op: OpRead, Req: 1, Sub: -1},
	}
	ios := Assemble(evs)
	if ios[0].Req != 1 || ios[1].Req != 2 {
		t.Fatal("not sorted by queue time")
	}
}

func TestSummarize(t *testing.T) {
	evs := mkEvents()
	evs = append(evs,
		Event{At: 3000, Act: ActQueue, Op: OpRead, Req: 2, Sub: -1, LPN: 0, Pages: 1},
		Event{At: 3000, Act: ActSplit, Op: OpRead, Req: 2, Sub: 0, LPN: 0, Pages: 1},
		Event{At: 3100, Act: ActError, Op: OpRead, Req: 2, Sub: 0, LPN: 0, Pages: 1},
	)
	s := Summarize(Assemble(evs))
	if s.IOs != 2 || s.Completed != 1 || s.Errored != 1 || s.Writes != 1 || s.Reads != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.MaxQ2C != sim.Duration(1500) || s.AvgQ2C != sim.Duration(1500) {
		t.Fatalf("q2c stats wrong: %+v", s)
	}
}

func TestPerIODumpRoundTrip(t *testing.T) {
	ios := Assemble(mkEvents())
	var buf bytes.Buffer
	if err := DumpPerIO(&buf, ios); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePerIO(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("parsed %d ios", len(back))
	}
	got, want := back[0], ios[0]
	if got.Req != want.Req || got.Op != want.Op || got.LPN != want.LPN ||
		got.Pages != want.Pages || got.Subs != want.Subs || got.SubsDone != want.SubsDone {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, want)
	}
	if got.Complete() != want.Complete() {
		t.Fatal("completeness lost in round trip")
	}
}

func TestEventLogRoundTrip(t *testing.T) {
	evs := mkEvents()
	var buf bytes.Buffer
	if err := WriteEvents(&buf, evs); err != nil {
		t.Fatal(err)
	}
	back, err := ParseEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(evs) {
		t.Fatalf("parsed %d events, want %d", len(back), len(evs))
	}
	for i := range evs {
		if back[i].Act != evs[i].Act || back[i].Req != evs[i].Req ||
			back[i].LPN != evs[i].LPN || back[i].Pages != evs[i].Pages {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, back[i], evs[i])
		}
	}
}

// Property: any synthetic event stream survives the write/parse round trip
// with action, ids and geometry intact.
func TestQuickEventRoundTrip(t *testing.T) {
	acts := []Action{ActQueue, ActSplit, ActDispatch, ActComplete, ActError, ActTimeout, ActReject}
	ops := []OpKind{OpRead, OpWrite, OpFlush}
	f := func(n uint8, seed uint16) bool {
		count := int(n%20) + 1
		evs := make([]Event, count)
		s := uint64(seed)
		for i := range evs {
			s = s*6364136223846793005 + 1442695040888963407
			evs[i] = Event{
				At:    sim.Time(s % 1e9),
				Act:   acts[s%uint64(len(acts))],
				Op:    ops[(s>>8)%uint64(len(ops))],
				Req:   s % 1000,
				Sub:   int(s % 7),
				LPN:   addr.LPN(s % 100000),
				Pages: int(s%256) + 1,
			}
		}
		var buf bytes.Buffer
		if WriteEvents(&buf, evs) != nil {
			return false
		}
		back, err := ParseEvents(&buf)
		if err != nil || len(back) != len(evs) {
			return false
		}
		for i := range evs {
			if back[i].Act != evs[i].Act || back[i].Req != evs[i].Req || back[i].Pages != evs[i].Pages {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencies(t *testing.T) {
	var ios []*IO
	for i := 1; i <= 100; i++ {
		ios = append(ios, &IO{Req: uint64(i), QueueAt: 0,
			LastComplete: sim.Time(i) * sim.Time(sim.Millisecond),
			Subs:         1, SubsDone: 1})
	}
	// One incomplete IO must be excluded.
	ios = append(ios, &IO{Req: 999, Subs: 2, SubsDone: 1})
	l := Latencies(ios)
	if l.N != 100 {
		t.Fatalf("N = %d", l.N)
	}
	if l.Min != sim.Millisecond || l.Max != 100*sim.Millisecond {
		t.Fatalf("min=%v max=%v", l.Min, l.Max)
	}
	if l.P50 < 49*sim.Millisecond || l.P50 > 51*sim.Millisecond {
		t.Fatalf("p50 = %v", l.P50)
	}
	if l.P99 < 98*sim.Millisecond || l.P99 > 100*sim.Millisecond {
		t.Fatalf("p99 = %v", l.P99)
	}
	if empty := Latencies(nil); empty.N != 0 {
		t.Fatal("empty latency set")
	}
}

func TestTracerRecordAndReset(t *testing.T) {
	tr := NewTracer()
	tr.Record(Event{Act: ActQueue, Req: 1})
	tr.Record(Event{Act: ActQueue, Req: 2})
	evs := tr.Events()
	if len(evs) != 2 || tr.Len() != 2 || evs[1].Req != 2 {
		t.Fatal("Events wrong")
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseEvents(bytes.NewBufferString("not an event line\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ParsePerIO(bytes.NewBufferString("  q=1 d=2 c=3\n")); err == nil {
		t.Fatal("timing before header accepted")
	}
}

func TestActionValid(t *testing.T) {
	if !ActQueue.Valid() || Action('z').Valid() {
		t.Fatal("Valid wrong")
	}
}

func TestOpKindString(t *testing.T) {
	for op, want := range map[OpKind]string{OpRead: "R", OpWrite: "W", OpFlush: "F", OpKind('D'): "D"} {
		if got := op.String(); got != want {
			t.Fatalf("OpKind(%q).String() = %q, want %q", byte(op), got, want)
		}
	}
	if racedet.Enabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	var sink string
	if n := testing.AllocsPerRun(100, func() {
		sink = OpRead.String()
		sink = OpWrite.String()
		sink = OpFlush.String()
	}); n != 0 {
		t.Fatalf("OpKind.String made %v allocs, want 0", n)
	}
	_ = sink
}
