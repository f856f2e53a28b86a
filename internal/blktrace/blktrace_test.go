package blktrace

import (
	"testing"

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
	if io.LastComplete != 2500 {
		t.Fatalf("c=%v", io.LastComplete)
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
