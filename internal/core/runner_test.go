package core

import (
	"context"
	"errors"
	"testing"

	"powerfail/internal/sim"
	"powerfail/internal/ssd"
	"powerfail/internal/workload"
)

// smallOpts keeps device maps small and runs fast.
func smallOpts(seed uint64) Options {
	prof := ssd.ProfileA()
	prof.CapacityGB = 8
	return Options{Seed: seed, Profile: prof}
}

func smallWrites() workload.Spec {
	return workload.Spec{
		Name:     "w",
		WSSBytes: 1 << 30,
		MinSize:  4 << 10,
		MaxSize:  1 << 20,
		Pattern:  workload.Random,
	}
}

func runSmall(t *testing.T, opts Options, spec ExperimentSpec) *Report {
	t.Helper()
	rep, err := RunExperiment(context.Background(), opts, spec)
	if err != nil {
		t.Fatalf("experiment: %v", err)
	}
	return rep
}

// TestRunCancelledContext: a pre-cancelled context returns immediately;
// a context cancelled mid-flight stops the simulation promptly with a
// partial report.
func TestRunCancelledContext(t *testing.T) {
	spec := ExperimentSpec{Name: "cancel", Workload: smallWrites(), Faults: 50, RequestsPerFault: 16}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := RunExperiment(cancelled, smallOpts(21), spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: err = %v", err)
	}
	if rep == nil || rep.Faults != 0 {
		t.Fatalf("pre-cancelled ctx ran faults: %+v", rep)
	}

	p, err := NewPlatform(smallOpts(22))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelMid := context.WithCancel(context.Background())
	p.K.After(sim.Second, cancelMid)
	rep, err = r.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel: err = %v", err)
	}
	if rep.Faults >= spec.Faults {
		t.Fatalf("cancelled run completed all %d faults", rep.Faults)
	}
}

func TestDeterministicReports(t *testing.T) {
	spec := ExperimentSpec{Name: "det", Workload: smallWrites(), Faults: 8, RequestsPerFault: 12}
	a := runSmall(t, smallOpts(99), spec)
	b := runSmall(t, smallOpts(99), spec)
	if a.Counters != b.Counters {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a.Counters, b.Counters)
	}
	if a.Requests != b.Requests || a.SimDuration != b.SimDuration {
		t.Fatal("non-counter report fields diverged")
	}
	c := runSmall(t, smallOpts(100), spec)
	if a.Counters == c.Counters {
		t.Fatal("different seeds produced identical counters (suspicious)")
	}
}

// TestWriteWorkloadLosesData: the paper's core finding — write workloads
// suffer data losses under power faults.
func TestWriteWorkloadLosesData(t *testing.T) {
	rep := runSmall(t, smallOpts(1), ExperimentSpec{
		Name: "writes", Workload: smallWrites(), Faults: 12, RequestsPerFault: 16,
	})
	if rep.DataLosses() == 0 {
		t.Fatal("no data losses on a write workload")
	}
	if rep.Counters.OKVerified == 0 {
		t.Fatal("nothing verified clean either; harness broken")
	}
	if rep.Faults != 12 {
		t.Fatalf("faults = %d", rep.Faults)
	}
}

// TestReadOnlyWorkloadNoDataFailures mirrors Fig. 5's 100%-read point:
// IO errors occur but no data failures.
func TestReadOnlyWorkloadNoDataFailures(t *testing.T) {
	w := smallWrites()
	w.ReadPct = 100
	rep := runSmall(t, smallOpts(2), ExperimentSpec{
		Name: "reads", Workload: w, Faults: 12, RequestsPerFault: 16,
	})
	if rep.DataLosses() != 0 {
		t.Fatalf("read-only workload lost data: %+v", rep.Counters)
	}
	if rep.Counters.IOErrors == 0 {
		t.Fatal("read-only workload saw no IO errors across 12 faults")
	}
}

// TestRARSequenceNoDataFailures mirrors Fig. 9's RAR bar.
func TestRARSequenceNoDataFailures(t *testing.T) {
	w := smallWrites()
	w.Sequence = workload.RAR
	rep := runSmall(t, smallOpts(3), ExperimentSpec{
		Name: "rar", Workload: w, Faults: 10, RequestsPerFault: 16,
	})
	if rep.DataLosses() != 0 {
		t.Fatalf("RAR lost data: %+v", rep.Counters)
	}
}

// TestSuperCapEliminatesLosses mirrors the power-loss-protection claim.
func TestSuperCapEliminatesLosses(t *testing.T) {
	opts := smallOpts(4)
	opts.Profile = opts.Profile.WithSuperCap()
	rep := runSmall(t, opts, ExperimentSpec{
		Name: "plp", Workload: smallWrites(), Faults: 12, RequestsPerFault: 16,
	})
	if rep.DataLosses() != 0 {
		t.Fatalf("supercap drive lost data: %+v", rep.Counters)
	}
	if rep.DeviceStats.PanicFlushes == 0 {
		t.Fatal("no panic flushes recorded")
	}
}

// TestCacheDisabledStillFails mirrors Section IV-A: failures are not only
// due to the DRAM cache; they persist with the cache disabled.
func TestCacheDisabledStillFails(t *testing.T) {
	opts := smallOpts(5)
	opts.Profile = opts.Profile.WithCacheDisabled()
	rep := runSmall(t, opts, ExperimentSpec{
		Name: "nocache", Workload: smallWrites(), Faults: 25, RequestsPerFault: 16,
	})
	if rep.DataLosses() == 0 {
		t.Fatal("cache-disabled drive never lost data over 25 faults")
	}
}

// TestWindowModeFarDelayIsSafe: a fault a long time after the last ACK
// finds everything durable.
func TestWindowModeFarDelayIsSafe(t *testing.T) {
	rep := runSmall(t, smallOpts(6), ExperimentSpec{
		Name: "window-far", Workload: smallWrites(), Faults: 8, RequestsPerFault: 12,
		WindowMode: true, PostACKDelay: 3 * sim.Second,
	})
	if rep.DataLosses() != 0 {
		t.Fatalf("losses %d at 3s post-ACK delay", rep.DataLosses())
	}
}

// TestWindowModeImmediateLoses: a fault right at the ACK catches the
// cached data.
func TestWindowModeImmediateLoses(t *testing.T) {
	rep := runSmall(t, smallOpts(7), ExperimentSpec{
		Name: "window-0", Workload: smallWrites(), Faults: 15, RequestsPerFault: 12,
		WindowMode: true, PostACKDelay: 0,
	})
	if rep.DataLosses() == 0 {
		t.Fatal("no losses with faults at ACK+0")
	}
}

func TestIOPSPacedExperiment(t *testing.T) {
	w := smallWrites()
	w.MaxSize = 64 << 10
	w.IOPS = 2000
	rep := runSmall(t, smallOpts(8), ExperimentSpec{
		Name: "paced", Workload: w, Faults: 6, RequestsPerFault: 20,
	})
	if rep.RespondedIOPS < 1000 || rep.RespondedIOPS > 2600 {
		t.Fatalf("responded IOPS = %.0f for requested 2000", rep.RespondedIOPS)
	}
}

// TestOpenLoopArrivalsParkDuringFaultCycle: once the cut has fired and an
// open-loop arrival cannot issue, the chain fires no further arrival
// until the cycle ends, so at most one arrival per fault cycle lands
// where it cannot issue, and the workload still resumes after each.
func TestOpenLoopArrivalsParkDuringFaultCycle(t *testing.T) {
	w := smallWrites()
	w.MaxSize = 64 << 10
	w.IOPS = 6000
	spec := ExperimentSpec{Name: "open", Workload: w, Faults: 5, RequestsPerFault: 12}
	p, err := NewPlatform(smallOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	idle, arrive := 0, r.arriveFn
	r.arriveFn = func() {
		if r.cutFired && (r.ph != phaseFaulting || r.faultErrored) {
			idle++
		}
		arrive()
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != spec.Faults {
		t.Fatalf("ran %d fault cycles, want %d", rep.Faults, spec.Faults)
	}
	if idle == 0 || idle > rep.Faults {
		t.Fatalf("%d arrivals landed where they could not issue over %d fault cycles, want 1 to %d",
			idle, rep.Faults, rep.Faults)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []ExperimentSpec{
		{Workload: smallWrites(), Faults: 0, RequestsPerFault: 1},
		{Workload: smallWrites(), Faults: 1, RequestsPerFault: 0},
		{Workload: workload.Spec{}, Faults: 1, RequestsPerFault: 1},
		{Workload: smallWrites(), Faults: 1, RequestsPerFault: 1, WindowMode: true, PostACKDelay: -1},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("spec %d accepted", i)
		}
	}
}

func TestReportRendering(t *testing.T) {
	rep := runSmall(t, smallOpts(9), ExperimentSpec{
		Name: "render", Workload: smallWrites(), Faults: 5, RequestsPerFault: 8,
	})
	if rep.String() == "" {
		t.Fatal("report rendering empty")
	}
	if rep.DataFailures() != rep.Counters.DataFailures ||
		rep.FWA() != rep.Counters.FWA || rep.IOErrors() != rep.Counters.IOErrors {
		t.Fatal("report accessors inconsistent")
	}
}

// TestHardwareChainExercised: the fault path runs through the Arduino,
// ATX pin and PSU rather than poking the device directly.
func TestHardwareChainExercised(t *testing.T) {
	p, err := NewPlatform(smallOpts(10))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, ExperimentSpec{
		Name: "hw", Workload: smallWrites(), Faults: 4, RequestsPerFault: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p.Arduino.Commands() != 8 { // cut + restore per fault
		t.Fatalf("arduino commands = %d, want 8", p.Arduino.Commands())
	}
	if p.PSU.Cuts() != 4 || p.PSU.Restores() != 4 {
		t.Fatalf("psu cuts=%d restores=%d", p.PSU.Cuts(), p.PSU.Restores())
	}
	if p.SSD.Stats().Deaths != 4 || p.SSD.Stats().Recoveries != 4 {
		t.Fatalf("device deaths=%d recoveries=%d", p.SSD.Stats().Deaths, p.SSD.Stats().Recoveries)
	}
}

// TestPerFaultOutcomesSum: the per-fault breakdown adds up to the totals.
func TestPerFaultOutcomesSum(t *testing.T) {
	rep := runSmall(t, smallOpts(11), ExperimentSpec{
		Name: "sum", Workload: smallWrites(), Faults: 10, RequestsPerFault: 12,
	})
	var data, fwa, io int
	for _, f := range rep.PerFault {
		data += f.DataFailures
		fwa += f.FWA
		io += f.IOErrors
	}
	if data != rep.Counters.DataFailures || fwa != rep.Counters.FWA || io != rep.Counters.IOErrors {
		t.Fatalf("per-fault sums (%d,%d,%d) != totals (%d,%d,%d)",
			data, fwa, io, rep.Counters.DataFailures, rep.Counters.FWA, rep.Counters.IOErrors)
	}
}

// TestFasterCutLosesMoreOrEqual: the transistor-style instantaneous cut
// denies the drive its 40 ms of powered grace, so it can only do worse
// (or equal) versus the realistic PSU discharge.
func TestFasterCutLosesMoreOrEqual(t *testing.T) {
	spec := ExperimentSpec{Name: "cut", Workload: smallWrites(), Faults: 20, RequestsPerFault: 16}
	slow := runSmall(t, smallOpts(12), spec)

	fast := smallOpts(12)
	fast.PSU.VNominal = 5
	fast.PSU.Capacitance = 2e-6
	fast.PSU.BleedOhms = 27.7
	fast.PSU.RiseTime = sim.Millisecond
	fastRep := runSmall(t, fast, spec)

	if fastRep.DataLosses()+3 < slow.DataLosses() {
		t.Fatalf("instant cut lost far less (%d) than slow discharge (%d)",
			fastRep.DataLosses(), slow.DataLosses())
	}
}
