package core

import (
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/sim"
	"powerfail/internal/trace"
	"powerfail/internal/txn"
)

// testTrace builds a small deterministic write-heavy trace: n records over
// a 256 MiB extent, ~200 us apart, one read in ten.
func testTrace(n int) *trace.Trace {
	recs := make([]trace.Record, n)
	for i := range recs {
		op := trace.OpWrite
		if i%10 == 9 {
			op = trace.OpRead
		}
		recs[i] = trace.Record{
			At:    sim.Duration(i) * 200 * sim.Microsecond,
			Op:    op,
			LPN:   addr.LPN((i * 7919) % 65536),
			Pages: 1 + i%8,
		}
	}
	return &trace.Trace{Name: "unit", Records: recs}
}

// TestTraceSourceClosedLoop: trace replay drives the whole fault pipeline
// end to end — the report records the source kind and replay coverage,
// and a write-heavy trace on a volatile-cache SSD loses data exactly like
// the synthetic generator does on the same drive and seed.
func TestTraceSourceClosedLoop(t *testing.T) {
	spec := ExperimentSpec{
		Name:   "trace-closed",
		Trace:  &trace.Config{Trace: testTrace(64)},
		Faults: 10, RequestsPerFault: 14,
	}
	rep := runSmall(t, smallOpts(61), spec)
	if rep.Source != "trace" {
		t.Fatalf("report source = %q", rep.Source)
	}
	if rep.Faults != 10 {
		t.Fatalf("faults = %d", rep.Faults)
	}
	s := rep.TraceStats
	if s == nil {
		t.Fatal("no TraceStats on a trace-mode report")
	}
	if s.Records != 64 || s.Replayed == 0 || s.Coverage <= 0 || s.Coverage > 1 {
		t.Fatalf("trace stats: %+v", s)
	}
	if s.Replayed > 64 && s.Laps == 0 {
		t.Fatalf("replayed %d of 64 without counting laps", s.Replayed)
	}
	if rep.TxnStats != nil {
		t.Fatal("trace-mode report carries TxnStats")
	}
	if rep.DataLosses() == 0 {
		t.Fatal("write-heavy trace lost nothing across 10 faults")
	}
	if rep.Counters.OKVerified == 0 {
		t.Fatal("nothing verified clean either; harness broken")
	}

	// The synthetic generator on the same drive and seed is the contrast:
	// it loses data too, and its report names the other source.
	synth := runSmall(t, smallOpts(61), ExperimentSpec{
		Name: "synthetic", Workload: tinyWrites(256), Faults: 10, RequestsPerFault: 14,
	})
	if synth.Source != "workload" || synth.TraceStats != nil {
		t.Fatalf("synthetic report source = %q, trace stats %+v", synth.Source, synth.TraceStats)
	}
	if synth.DataLosses() == 0 {
		t.Fatal("synthetic write workload lost nothing across 10 faults")
	}
}

// TestTraceSourceOpenLoop: open-loop replay paces arrivals from the
// trace's own timestamps; the pipeline still completes every fault.
func TestTraceSourceOpenLoop(t *testing.T) {
	spec := ExperimentSpec{
		Name:   "trace-open",
		Trace:  &trace.Config{Trace: testTrace(64), Mode: trace.OpenLoop},
		Faults: 6, RequestsPerFault: 10,
	}
	rep := runSmall(t, smallOpts(62), spec)
	if rep.Faults != 6 || rep.TraceStats == nil {
		t.Fatalf("open-loop replay broken: faults=%d stats=%+v", rep.Faults, rep.TraceStats)
	}
	if rep.RespondedIOPS <= 0 {
		t.Fatal("no responded IOPS measured")
	}
}

// TestTraceReplayDeterministic: the same trace + seed reproduces an
// identical report.
func TestTraceReplayDeterministic(t *testing.T) {
	spec := ExperimentSpec{
		Name:   "trace-det",
		Trace:  &trace.Config{Trace: testTrace(48)},
		Faults: 6, RequestsPerFault: 10,
	}
	a := runSmall(t, smallOpts(63), spec)
	b := runSmall(t, smallOpts(63), spec)
	if a.Counters != b.Counters || *a.TraceStats != *b.TraceStats {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a.Counters, b.Counters)
	}
}

// TestSourceSelection: the explicit selector and its auto-inference
// resolve and validate consistently across the configuration matrix.
func TestSourceSelection(t *testing.T) {
	tc := txn.DefaultConfig()
	cycle := ExperimentSpec{Name: "s", Faults: 2, RequestsPerFault: 4}

	// Explicit trace source without a trace config.
	bad := cycle
	bad.Source = SourceTrace
	if bad.Validate() == nil {
		t.Error("SourceTrace without Trace accepted")
	}

	// Trace replay paces itself; a spec'd IOPS would be silently ignored.
	paced := cycle
	paced.Trace = &trace.Config{Trace: testTrace(8)}
	paced.Workload.IOPS = 500
	if paced.Validate() == nil {
		t.Error("trace spec with Workload.IOPS accepted")
	}

	// Explicit txn source on a platform without an application layer.
	p, err := NewPlatform(smallOpts(64))
	if err != nil {
		t.Fatal(err)
	}
	txnSpec := cycle
	txnSpec.Source = SourceTxn
	if _, err := NewRunner(p, txnSpec); err == nil {
		t.Error("SourceTxn accepted without Options.App")
	}

	// A trace spec on a txn platform: contradictory.
	appOpts := smallOpts(65)
	appOpts.App = AppConfig{Txn: &tc}
	p2, err := NewPlatform(appOpts)
	if err != nil {
		t.Fatal(err)
	}
	mixed := cycle
	mixed.Trace = &trace.Config{Trace: testTrace(8)}
	if _, err := NewRunner(p2, mixed); err == nil {
		t.Error("trace spec accepted on an application-layer platform")
	}

	// Auto-inference: workload by default, txn under App, trace with a
	// trace config.
	if got := (ExperimentSpec{}).sourceKind(false); got != SourceWorkload {
		t.Errorf("auto(false) = %v", got)
	}
	if got := (ExperimentSpec{}).sourceKind(true); got != SourceTxn {
		t.Errorf("auto(app) = %v", got)
	}
	if got := mixed.sourceKind(false); got != SourceTrace {
		t.Errorf("auto(trace) = %v", got)
	}
	for _, k := range []SourceKind{SourceAuto, SourceWorkload, SourceTxn, SourceTrace} {
		if k.String() == "" {
			t.Errorf("kind %d has no name", int(k))
		}
	}
}

// TestTxnPerFaultBreakdown: the oracle's per-cycle verdicts are exposed
// like PerFault and sum to the aggregate TxnStats.
func TestTxnPerFaultBreakdown(t *testing.T) {
	rep := runSmall(t, txnOpts(77, txn.NoFlush), txnSpec("txn-perfault", 6))
	s := rep.TxnStats
	if s == nil {
		t.Fatal("no TxnStats")
	}
	if len(rep.TxnPerFault) != rep.Faults {
		t.Fatalf("per-fault cycles = %d, want %d", len(rep.TxnPerFault), rep.Faults)
	}
	var sum txn.CycleVerdicts
	for _, c := range rep.TxnPerFault {
		sum.Evaluated += c.Evaluated
		sum.Intact += c.Intact
		sum.LostCommits += c.LostCommits
		sum.Torn += c.Torn
		sum.OutOfOrder += c.OutOfOrder
		sum.Unacked += c.Unacked
		sum.ScanPages += c.ScanPages
	}
	if int64(sum.Evaluated) != s.Evaluated || int64(sum.Intact) != s.Intact ||
		int64(sum.LostCommits) != s.LostCommits || int64(sum.Torn) != s.Torn ||
		int64(sum.OutOfOrder) != s.OutOfOrder || int64(sum.Unacked) != s.Unacked ||
		int64(sum.ScanPages) != s.ScanPages {
		t.Fatalf("per-fault sums %+v do not match totals %+v", sum, s)
	}
}

// TestPipelinedVerification: with Opts.Concurrency above 1 the
// verification and recovery read-backs keep several control reads in
// flight; the run completes every fault, still verifies cleanly, and is
// deterministic for a fixed seed.
func TestPipelinedVerification(t *testing.T) {
	opts := smallOpts(66)
	opts.Concurrency = 4
	spec := ExperimentSpec{Name: "pipe", Workload: smallWrites(), Faults: 8, RequestsPerFault: 24}
	a := runSmall(t, opts, spec)
	if a.Faults != 8 {
		t.Fatalf("faults = %d", a.Faults)
	}
	if a.Counters.OKVerified == 0 || a.DataLosses() == 0 {
		t.Fatalf("pipelined verify lost the taxonomy: %+v", a.Counters)
	}
	b := runSmall(t, opts, spec)
	if a.Counters != b.Counters {
		t.Fatalf("pipelined run not deterministic:\n%+v\n%+v", a.Counters, b.Counters)
	}

	// The txn oracle's recovery reads pipeline through the same path.
	topts := txnOpts(67, txn.FlushPerCommit)
	topts.Concurrency = 4
	rep := runSmall(t, topts, txnSpec("txn-pipe", 5))
	if rep.TxnStats == nil || rep.TxnStats.Evaluated == 0 {
		t.Fatalf("txn run under pipelined recovery idle: %+v", rep.TxnStats)
	}
	if rep.TxnStats.Losses() != 0 {
		t.Fatalf("flush-per-commit lost transactions under pipelined recovery: %s", rep.TxnStats)
	}
}
