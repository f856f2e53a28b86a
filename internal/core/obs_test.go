package core

import (
	"context"
	"encoding/json"
	"testing"

	"powerfail/internal/array"
	"powerfail/internal/fleet"
	"powerfail/internal/obs"
	"powerfail/internal/sim"
	"powerfail/internal/ssd"
	"powerfail/internal/txn"
	"powerfail/internal/workload"
)

// obsTestSpec is a small single-SSD experiment the observability tests
// share.
func obsTestSpec() ExperimentSpec {
	return ExperimentSpec{
		Name: "obs",
		Workload: workload.Spec{
			Name:     "obs",
			WSSBytes: 1 << 30,
			MinSize:  4 << 10,
			MaxSize:  64 << 10,
			Pattern:  workload.Random,
		},
		Faults:           4,
		RequestsPerFault: 12,
		MaxSimTime:       20 * sim.Minute,
	}
}

func obsTestOpts(cfg *obs.Config) Options {
	prof := ssd.ProfileA()
	prof.CapacityGB = 8
	return Options{Seed: 99, Profile: prof, Obs: cfg}
}

func runObs(t *testing.T, opts Options, spec ExperimentSpec) *Report {
	t.Helper()
	rep, err := RunExperiment(context.Background(), opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestObsEquivalence is the acceptance criterion: an experiment run with
// the observability layer fully enabled produces a report byte-identical
// (JSON) to the same experiment with it disabled, once the optional obs
// section is stripped — observation never perturbs the simulation.
func TestObsEquivalence(t *testing.T) {
	spec := obsTestSpec()
	off := runObs(t, obsTestOpts(nil), spec)
	zero := runObs(t, obsTestOpts(&obs.Config{}), spec)
	on := runObs(t, obsTestOpts(&obs.Config{Metrics: true, Trace: true}), spec)

	if off.Obs != nil || zero.Obs != nil {
		t.Fatal("disabled runs must not carry an obs summary")
	}
	if on.Obs == nil || on.ObsTrace.Len() == 0 {
		t.Fatal("enabled run carries no obs data")
	}
	stripped := *on
	stripped.Obs = nil

	offJSON, err := json.Marshal(off)
	if err != nil {
		t.Fatal(err)
	}
	zeroJSON, err := json.Marshal(zero)
	if err != nil {
		t.Fatal(err)
	}
	onJSON, err := json.Marshal(&stripped)
	if err != nil {
		t.Fatal(err)
	}
	if string(offJSON) != string(zeroJSON) {
		t.Errorf("nil config and zero config reports diverged:\n%s\n%s", offJSON, zeroJSON)
	}
	if string(offJSON) != string(onJSON) {
		t.Errorf("observability changed the experiment outcome:\n%s\n%s", offJSON, onJSON)
	}
}

// TestObsMetricsPopulated: the enabled run records the block-device,
// power-scheduler and runner instrumentation the platform wires up.
func TestObsMetricsPopulated(t *testing.T) {
	spec := obsTestSpec()
	rep := runObs(t, obsTestOpts(&obs.Config{Metrics: true, Trace: true}), spec)
	s := rep.Obs
	if rep.Events == 0 {
		t.Error("kernel event count missing")
	}
	if s.Counter("blockdev/submitted") == 0 {
		t.Error("blockdev/submitted not counted")
	}
	if got, want := s.Counter("power/cuts"), int64(rep.Cuts); got != want {
		t.Errorf("power/cuts = %d, want %d (report cuts)", got, want)
	}
	if got, want := s.Counter("power/restores"), int64(rep.Restores); got != want {
		t.Errorf("power/restores = %d, want %d (report restores)", got, want)
	}
	if h := s.Histogram("blockdev/q2c_write_ns"); h.Count == 0 {
		t.Error("write latency histogram empty")
	} else if h.P50 < h.Min || h.P99 > h.Max || h.P50 > h.P99 {
		t.Errorf("write latency quantiles inconsistent: %+v", h)
	}
	if h := s.Histogram("runner/fault_cycle_ns"); h.Count != uint64(rep.Faults) {
		t.Errorf("fault_cycle histogram count = %d, want %d", h.Count, rep.Faults)
	}

	var power, qdepth, blk int
	for _, ev := range rep.ObsTrace.Events() {
		switch ev.Kind {
		case obs.KindPower:
			power++
		case obs.KindQueueDepth:
			qdepth++
		case obs.KindBlockIO:
			blk++
		}
	}
	if power != rep.Cuts+rep.Restores {
		t.Errorf("power trace events = %d, want %d", power, rep.Cuts+rep.Restores)
	}
	if qdepth == 0 || blk == 0 {
		t.Errorf("queue-depth (%d) or block-IO (%d) trace events missing", qdepth, blk)
	}
}

// TestObsTxnInstrumented: the transactional source wires the engine's
// telemetry through the platform scope.
func TestObsTxnInstrumented(t *testing.T) {
	prof := ssd.ProfileA()
	prof.CapacityGB = 8
	cfg := txn.DefaultConfig()
	opts := Options{
		Seed:    31,
		Profile: prof,
		App:     AppConfig{Txn: &cfg},
		Obs:     &obs.Config{Metrics: true, Trace: true},
	}
	rep := runObs(t, opts, ExperimentSpec{
		Name:             "obs-txn",
		Faults:           3,
		RequestsPerFault: 8,
		MaxSimTime:       20 * sim.Minute,
	})
	s := rep.Obs
	if s.Counter("txn/begins") == 0 || s.Counter("txn/commits") == 0 {
		t.Errorf("txn lifecycle counters empty: begins=%d commits=%d",
			s.Counter("txn/begins"), s.Counter("txn/commits"))
	}
	if got, want := s.Counter("txn/recovery_scans"), int64(rep.TxnStats.RecoveryScans); got != want {
		t.Errorf("txn/recovery_scans = %d, want %d", got, want)
	}
	if h := s.Histogram("txn/commit_latency_ns"); h.Count != uint64(s.Counter("txn/commits")) {
		t.Errorf("commit latency count %d != commits %d", h.Count, s.Counter("txn/commits"))
	}
	var txnEvents int
	for _, ev := range rep.ObsTrace.Events() {
		if ev.Kind == obs.KindTxn {
			txnEvents++
		}
	}
	if txnEvents == 0 {
		t.Error("no txn trace events")
	}
}

// TestObsFleetInstrumented: the fleet path wires power, state-machine and
// rebuild-window telemetry, and observation leaves its report unchanged.
func TestObsFleetInstrumented(t *testing.T) {
	fcfg := &fleet.Config{
		Arrays:   4,
		Spares:   2,
		Member:   fleet.MemberProfile{Pages: 1024},
		Rebuild:  fleet.RebuildPolicy{Delay: sim.Second},
		Faults:   fleet.FaultPlan{Level: fleet.PSU, Count: 4, Outage: 3 * sim.Second},
		Duration: 20 * sim.Second,
	}
	run := func(cfg *obs.Config) *Report {
		return runObs(t, Options{Seed: 7, Fleet: fcfg, Obs: cfg},
			ExperimentSpec{Name: "obs-fleet"})
	}
	off := run(nil)
	on := run(&obs.Config{Metrics: true, Trace: true})

	stripped := *on
	stripped.Obs = nil
	offJSON, _ := json.Marshal(off)
	onJSON, _ := json.Marshal(&stripped)
	if string(offJSON) != string(onJSON) {
		t.Errorf("observability changed the fleet outcome:\n%s\n%s", offJSON, onJSON)
	}

	s := on.Obs
	if got, want := s.Counter("power/cuts"), int64(on.Fleet.Cuts); got != want {
		t.Errorf("power/cuts = %d, want %d", got, want)
	}
	if s.Counter("fleet/slot_transitions") == 0 {
		t.Error("no slot transitions recorded")
	}
	if got, want := s.Counter("fleet/declared_failures"), int64(on.Fleet.DeclaredFailures); got != want {
		t.Errorf("fleet/declared_failures = %d, want %d", got, want)
	}
	if h := s.Histogram("fleet/rebuild_window_ns"); h.Count != uint64(on.Fleet.RebuildCompleted) {
		t.Errorf("rebuild window histogram count = %d, want %d", h.Count, on.Fleet.RebuildCompleted)
	}
	var stateEvents int
	for _, ev := range on.ObsTrace.Events() {
		if ev.Kind == obs.KindState {
			stateEvents++
		}
	}
	if stateEvents == 0 {
		t.Error("no rebuild state-transition trace events")
	}
}

// TestObsCountersReadReportFields: an obs counter is a reader of the
// count its layer keeps, not a second count. So on a RAID-5 rig, a WAL
// on one SSD and a fleet, every counter equals the report field the same
// count feeds. Fleet member queues are checked in internal/fleet, whose
// report carries no per-queue stats.
func TestObsCountersReadReportFields(t *testing.T) {
	metrics := &obs.Config{Metrics: true}
	check := func(t *testing.T, s *obs.Summary, want map[string]int64) {
		t.Helper()
		got := map[string]int64{}
		for _, c := range s.Counters {
			got[c.Name] = c.Value
		}
		for name, w := range want {
			if g, ok := got[name]; !ok || g != w {
				t.Errorf("%s = %d (listed %v), want %d", name, g, ok, w)
			}
		}
	}
	rig := func(rep *Report) map[string]int64 {
		h := rep.HostStats
		return map[string]int64{
			"blockdev/submitted": h.Submitted,
			"blockdev/rejected":  h.Rejected,
			"blockdev/completed": h.Completed,
			"blockdev/errored":   h.Errored,
			"blockdev/timed_out": h.TimedOut,
			"blockdev/splits":    h.Splits,
			"power/cuts":         int64(rep.Cuts),
			"power/restores":     int64(rep.Restores),
		}
	}

	t.Run("raid5", func(t *testing.T) {
		// A slower-to-recover QLC member leaves the array degraded after
		// each restore, so reads reconstruct.
		opts := raidOpts(1, array.RAID5, 3)
		q := ssd.ProfileQ()
		q.CapacityGB, q.Channels, q.Dies = 1, 4, 4
		opts.Topology.Array.Members[2] = q
		opts.Concurrency = 4
		opts.Obs = metrics
		wl := tinyWrites(512)
		wl.ReadPct = 50
		rep := runObs(t, opts, ExperimentSpec{Name: "obs-raid5", Workload: wl, Faults: 6, RequestsPerFault: 20})
		want, st := rig(rep), rep.ArrayStats
		want["array/write_holes"] = st.WriteHoles
		want["array/reconstructions"] = st.Reconstructions
		want["array/parity_rmws"] = st.ParityRMWs
		check(t, rep.Obs, want)
		if st.ParityRMWs == 0 || st.Reconstructions == 0 || rep.Cuts == 0 {
			t.Errorf("run exercised too little: %d parity RMWs, %d reconstructions, %d cuts",
				st.ParityRMWs, st.Reconstructions, rep.Cuts)
		}
	})

	t.Run("txn-ssd", func(t *testing.T) {
		prof := ssd.ProfileA()
		prof.CapacityGB = 8
		cfg := txn.DefaultConfig()
		rep := runObs(t, Options{Seed: 31, Profile: prof, App: AppConfig{Txn: &cfg}, Obs: metrics},
			ExperimentSpec{Name: "obs-txn", Faults: 3, RequestsPerFault: 8, MaxSimTime: 20 * sim.Minute})
		want, st := rig(rep), rep.TxnStats
		want["txn/begins"] = st.Started
		want["txn/commits"] = st.Committed
		want["txn/recovery_scans"] = st.RecoveryScans
		want["txn/recovery_scan_pages"] = st.ScanPages
		check(t, rep.Obs, want)
		if st.Committed == 0 || st.ScanPages == 0 {
			t.Errorf("run exercised too little: %d commits, %d scanned pages", st.Committed, st.ScanPages)
		}
	})

	t.Run("fleet", func(t *testing.T) {
		fcfg := &fleet.Config{
			Arrays:   4,
			Spares:   2,
			Member:   fleet.MemberProfile{Pages: 1024},
			Rebuild:  fleet.RebuildPolicy{Delay: sim.Second},
			Faults:   fleet.FaultPlan{Level: fleet.PSU, Count: 4, Outage: 3 * sim.Second},
			Duration: 20 * sim.Second,
		}
		rep := runObs(t, Options{Seed: 7, Fleet: fcfg, Obs: metrics}, ExperimentSpec{Name: "obs-fleet"})
		st := rep.Fleet
		check(t, rep.Obs, map[string]int64{
			"power/cuts":              int64(st.Cuts),
			"power/restores":          int64(st.Restores),
			"fleet/declared_failures": int64(st.DeclaredFailures),
		})
		if st.Cuts == 0 || st.DeclaredFailures == 0 {
			t.Errorf("run exercised too little: %d cuts, %d declared failures", st.Cuts, st.DeclaredFailures)
		}
	})
}
