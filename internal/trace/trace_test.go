package trace

import (
	"strings"
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/sim"
)

// TestParseGoldenMSR: the checked-in MSR-format fixture parses with the
// documented unit conversions (100 ns ticks, byte offsets to pages) and
// arrival times relative to the first row.
func TestParseGoldenMSR(t *testing.T) {
	tr, err := ParseFile("testdata/good-msr.csv")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "good-msr" || len(tr.Records) != 3 {
		t.Fatalf("parsed %s with %d records", tr.Name, len(tr.Records))
	}
	want := []Record{
		{At: 0, Op: OpWrite, LPN: 0, Pages: 1},
		{At: sim.Millisecond, Op: OpRead, LPN: 2, Pages: 2},
		{At: 3 * sim.Millisecond, Op: OpWrite, LPN: 5, Pages: 2},
	}
	for i, w := range want {
		if tr.Records[i] != w {
			t.Fatalf("record %d = %+v, want %+v", i, tr.Records[i], w)
		}
	}
}

// TestParseGoldenSimple: the simple-format fixture with comments, a blank
// line, and every accepted op spelling.
func TestParseGoldenSimple(t *testing.T) {
	tr, err := ParseFile("testdata/good-simple.csv")
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{At: 0, Op: OpWrite, LPN: 0, Pages: 1},
		{At: 250 * sim.Microsecond, Op: OpRead, LPN: 1, Pages: 3},
		{At: 500 * sim.Microsecond, Op: OpWrite, LPN: 256, Pages: 1},
	}
	if len(tr.Records) != len(want) {
		t.Fatalf("parsed %d records, want %d", len(tr.Records), len(want))
	}
	for i, w := range want {
		if tr.Records[i] != w {
			t.Fatalf("record %d = %+v, want %+v", i, tr.Records[i], w)
		}
	}
	if tr.Writes() != 2 || tr.Duration() != 500*sim.Microsecond || tr.Extent() != 257 {
		t.Fatalf("accessors wrong: %s", tr)
	}
}

// TestParseMalformedFixtures: every malformed fixture fails with an error
// naming the offending line — a trace with silent holes would
// misrepresent the workload it claims to replay.
func TestParseMalformedFixtures(t *testing.T) {
	cases := []struct{ file, wantInErr string }{
		{"zero-size.csv", "line 2"},
		{"bad-op.csv", "line 2"},
		{"out-of-range.csv", "line 2"},
		{"backwards-ts.csv", "line 2"},
		{"mixed-columns.csv", "line 2"},
	}
	for _, tc := range cases {
		_, err := ParseFile("testdata/" + tc.file)
		if err == nil {
			t.Errorf("%s: accepted", tc.file)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantInErr) {
			t.Errorf("%s: error %q does not name %q", tc.file, err, tc.wantInErr)
		}
	}
}

func TestParseRejectsEmptyAndJunk(t *testing.T) {
	for _, in := range []string{
		"",
		"# only a comment\n",
		"Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n",
		"1,2,3\n",
		"-5,W,0,4096\n",
		"0,W,-4096,4096\n",
		"0,W,0,1073741825\n", // one byte past the request bound
	} {
		if _, err := Parse(strings.NewReader(in), "junk"); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

// TestParseUnalignedOffsets: byte offsets are normalized to the pages the
// request touches.
func TestParseUnalignedOffsets(t *testing.T) {
	tr, err := Parse(strings.NewReader("0,W,100,100\n1000,R,4095,2\n"), "unaligned")
	if err != nil {
		t.Fatal(err)
	}
	if r := tr.Records[0]; r.LPN != 0 || r.Pages != 1 {
		t.Fatalf("record 0: %+v", r)
	}
	if r := tr.Records[1]; r.LPN != 0 || r.Pages != 2 {
		// 4095..4097 straddles the first page boundary.
		t.Fatalf("record 1: %+v", r)
	}
}

// TestFormatRecordRoundTrip: FormatRecord emits the canonical simple row
// and parsing it yields the record back.
func TestFormatRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{At: 0, Op: OpWrite, LPN: 0, Pages: 1},
		{At: 123456789, Op: OpRead, LPN: 777, Pages: 13},
	}
	var b strings.Builder
	for _, r := range recs {
		b.WriteString(FormatRecord(r))
		b.WriteByte('\n')
	}
	tr, err := Parse(strings.NewReader(b.String()), "rt")
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if tr.Records[i] != r {
			t.Fatalf("round trip %d: %+v != %+v", i, tr.Records[i], r)
		}
	}
}

func smallTrace() *Trace {
	return &Trace{Name: "t", Records: []Record{
		{At: 0, Op: OpWrite, LPN: 0, Pages: 2},
		{At: 100 * sim.Microsecond, Op: OpRead, LPN: 8, Pages: 1},
		{At: 150 * sim.Microsecond, Op: OpWrite, LPN: 4, Pages: 4},
		{At: 400 * sim.Microsecond, Op: OpWrite, LPN: 12, Pages: 2},
	}}
}

// TestReplayerLoopsAndCovers: the replayer wraps to the start when the
// trace runs out and the stats record replays, laps and coverage.
func TestReplayerLoopsAndCovers(t *testing.T) {
	r, err := NewReplayer(Config{Trace: smallTrace()}, 1<<20, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		io := r.Next()
		if io.Pages <= 0 {
			t.Fatalf("io %d has no pages", i)
		}
		if io.Op == OpWrite && io.Data.Pages() != io.Pages {
			t.Fatalf("io %d: payload %d pages for a %d-page write", i, io.Data.Pages(), io.Pages)
		}
		if io.Op == OpRead && io.Data.Pages() != 0 {
			t.Fatalf("io %d: read carries payload", i)
		}
	}
	s := r.Stats()
	if s.Replayed != 10 || s.Laps != 2 || s.Coverage != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if s.Reads+s.Writes != s.Replayed || s.Clamped != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestReplayerScalesToDevice: a trace wider than the device is compressed
// into its address space; every IO stays in bounds and the scaling is
// counted.
func TestReplayerScalesToDevice(t *testing.T) {
	tr := &Trace{Name: "wide", Records: []Record{
		{At: 0, Op: OpWrite, LPN: 0, Pages: 4},
		{At: 1000, Op: OpWrite, LPN: 1 << 30, Pages: 8},
		{At: 2000, Op: OpWrite, LPN: 1 << 31, Pages: 4},
	}}
	const devPages = 1024
	r, err := NewReplayer(Config{Trace: tr}, devPages, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		io := r.Next()
		if int64(io.LPN) < 0 || int64(io.LPN)+int64(io.Pages) > devPages {
			t.Fatalf("io %d out of device bounds: lpn=%d pages=%d", i, io.LPN, io.Pages)
		}
	}
	if s := r.Stats(); s.Clamped == 0 {
		t.Fatalf("wide trace replayed without scaling: %+v", s)
	}
}

// TestReplayerScalesHugeAddresses: scaling addresses near the parser's
// 1 PiB bound onto a large device must not overflow — every placement
// stays in range and preserves relative order.
func TestReplayerScalesHugeAddresses(t *testing.T) {
	tr := &Trace{Name: "huge", Records: []Record{
		{At: 0, Op: OpWrite, LPN: 0, Pages: 1},
		{At: 1000, Op: OpWrite, LPN: 1 << 37, Pages: 1},
		{At: 2000, Op: OpWrite, LPN: (1 << 37) + (1 << 36), Pages: 1},
	}}
	const devPages = int64(1) << 26 // a 256 GiB device
	r, err := NewReplayer(Config{Trace: tr}, devPages, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	var prev addr.LPN = -1
	for i := 0; i < 3; i++ {
		io := r.Next()
		if int64(io.LPN) < 0 || int64(io.LPN)+int64(io.Pages) > devPages {
			t.Fatalf("io %d escaped the device: lpn=%d pages=%d", i, io.LPN, io.Pages)
		}
		if io.LPN <= prev && i > 0 {
			t.Fatalf("scaling lost relative order at io %d: %d after %d", i, io.LPN, prev)
		}
		prev = io.LPN
	}
}

// TestReplayerClampsOversizedRequest: a request bigger than the whole
// device is truncated to it.
func TestReplayerClampsOversizedRequest(t *testing.T) {
	tr := &Trace{Name: "big", Records: []Record{{At: 0, Op: OpWrite, LPN: 0, Pages: 64}}}
	r, err := NewReplayer(Config{Trace: tr}, 16, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	io := r.Next()
	if io.LPN != 0 || io.Pages != 16 {
		t.Fatalf("clamped io: lpn=%d pages=%d", io.LPN, io.Pages)
	}
	if s := r.Stats(); s.Clamped != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestReplayerOpenLoopArrivals: open-loop gaps reproduce the original
// inter-arrival times, wrapped laps continue the cadence, and TimeScale
// stretches the schedule.
func TestReplayerOpenLoopArrivals(t *testing.T) {
	r, err := NewReplayer(Config{Trace: smallTrace(), Mode: OpenLoop}, 1<<20, sim.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if !r.OpenLoop() {
		t.Fatal("open-loop replayer reports closed loop")
	}
	// Arrivals interleave with issues (the runner's open-loop pattern):
	// each record is armed with its own inter-arrival gap.
	want := []sim.Duration{0, 100 * sim.Microsecond, 50 * sim.Microsecond, 250 * sim.Microsecond}
	for i, w := range want {
		if got := r.NextArrival(); got != w {
			t.Fatalf("gap %d = %v, want %v", i, got, w)
		}
		r.Next()
	}
	// The wrap restarts one mean gap (100us) after the last arrival.
	if got := r.NextArrival(); got != 100*sim.Microsecond {
		t.Fatalf("wrap gap = %v", got)
	}
	// An arrival that fires without an issue (the runner mid-fault-cycle)
	// idles at the trace's mean cadence and does NOT consume the armed
	// record's gap — when issuing resumes, the next record still gets its
	// own spacing.
	if got := r.NextArrival(); got != 100*sim.Microsecond {
		t.Fatalf("paused gap = %v", got)
	}
	r.Next() // lap 1 record 0 issues
	if got := r.NextArrival(); got != 100*sim.Microsecond {
		t.Fatalf("post-pause gap = %v, want the record's own 100us", got)
	}

	slow, err := NewReplayer(Config{Trace: smallTrace(), Mode: OpenLoop, TimeScale: 2}, 1<<20, sim.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	slow.NextArrival()
	slow.Next()
	if got := slow.NextArrival(); got != 200*sim.Microsecond {
		t.Fatalf("scaled gap = %v", got)
	}

	closed, err := NewReplayer(Config{Trace: smallTrace()}, 1<<20, sim.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if closed.OpenLoop() || closed.NextArrival() != 0 {
		t.Fatal("closed-loop replayer paces arrivals")
	}
}

// TestReplayerDeterministic: the same (config, device, seed) reproduces
// the identical IO stream, payload fingerprints included.
func TestReplayerDeterministic(t *testing.T) {
	mk := func() *Replayer {
		r, err := NewReplayer(Config{Trace: smallTrace()}, 1<<10, sim.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := mk(), mk()
	for i := 0; i < 12; i++ {
		x, y := a.Next(), b.Next()
		if x.Op != y.Op || x.LPN != y.LPN || x.Pages != y.Pages || !x.Data.Equal(y.Data) {
			t.Fatalf("io %d diverged: %+v vs %+v", i, x, y)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{Trace: &Trace{Name: "empty"}},
		{Trace: smallTrace(), Mode: Mode(9)},
		{Trace: smallTrace(), TimeScale: -1},
		// smallTrace's open-loop lap is 500 µs over 4 records: a mean gap
		// of 125 µs, which this scale puts under the 1 ns tick.
		{Trace: smallTrace(), Mode: OpenLoop, TimeScale: 1e-6},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	for _, c := range []Config{
		{Trace: smallTrace(), Mode: OpenLoop, TimeScale: 1e-5}, // 1.25 ns
		{Trace: smallTrace(), TimeScale: 1e-6},                 // closed loop ignores the scale
		{Trace: &Trace{Records: smallTrace().Records[:1]}, Mode: OpenLoop},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("config %+v rejected: %v", c, err)
		}
	}
	if _, err := NewReplayer(Config{Trace: smallTrace()}, 0, sim.NewRNG(1)); err == nil {
		t.Error("zero-page device accepted")
	}
}

// TestConfigJSONSummarizes: a config marshals as a summary — records never
// enter a report.
func TestConfigJSONSummarizes(t *testing.T) {
	c := Config{Trace: smallTrace(), Mode: OpenLoop, TimeScale: 0.5}
	b, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	got := string(b)
	for _, want := range []string{`"name":"t"`, `"records":4`, `"mode":"open"`, `"time_scale":0.5`} {
		if !strings.Contains(got, want) {
			t.Fatalf("summary %s missing %s", got, want)
		}
	}
	if strings.Contains(got, "4096") || strings.Contains(got, "lpn") {
		t.Fatalf("summary leaks records: %s", got)
	}
	if addr.PageBytes != 4096 {
		t.Fatal("page size drifted; fixtures assume 4 KiB")
	}
}
