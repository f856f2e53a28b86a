package fleet

import (
	"encoding/json"
	"fmt"
	"testing"

	"powerfail/internal/blockdev"
	"powerfail/internal/obs"
	"powerfail/internal/sim"
)

func TestTreePowerPropagation(t *testing.T) {
	tr, err := NewTree(DomainConfig{Racks: 2, EnclosuresPerRack: 2, PSUsPerEnclosure: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Leaves()); got != 8 {
		t.Fatalf("leaves = %d, want 8", got)
	}
	enc := tr.Nodes(Enclosure)[1] // rack0/enc1: leaves 2 and 3
	var transitions []string
	for _, leaf := range tr.Leaves() {
		l := leaf
		l.OnPower(func(on bool) {
			transitions = append(transitions, l.Name())
			_ = on
		})
	}
	tr.CutNode(enc)
	if len(transitions) != 2 {
		t.Fatalf("enclosure cut reached %d leaves (%v), want exactly its 2", len(transitions), transitions)
	}
	for i, leaf := range tr.Leaves() {
		want := i != 2 && i != 3
		if leaf.Powered() != want {
			t.Errorf("leaf %d (%s) powered = %v, want %v", i, leaf.Name(), leaf.Powered(), want)
		}
	}
	if tr.CutsAt(Enclosure) != 1 || tr.CutsAt(PSU) != 0 {
		t.Errorf("cut counted at wrong level: enc=%d psu=%d", tr.CutsAt(Enclosure), tr.CutsAt(PSU))
	}
	tr.RestoreNode(enc)
	for i, leaf := range tr.Leaves() {
		if !leaf.Powered() {
			t.Errorf("leaf %d dark after restore", i)
		}
	}
}

func TestTreeNestedCuts(t *testing.T) {
	tr, err := NewTree(DomainConfig{Racks: 1, EnclosuresPerRack: 1, PSUsPerEnclosure: 1})
	if err != nil {
		t.Fatal(err)
	}
	leaf := tr.Leaves()[0]
	rack := tr.Nodes(Rack)[0]
	// Overlapping cuts at two levels: the leaf stays dark until both end.
	tr.CutNode(rack)
	tr.CutNode(leaf)
	tr.RestoreNode(rack)
	if leaf.Powered() {
		t.Fatal("leaf powered while its own cut is still active")
	}
	tr.RestoreNode(leaf)
	if !leaf.Powered() {
		t.Fatal("leaf dark after all cuts restored")
	}
	// Same-node cuts nest via refcount.
	tr.CutNode(leaf)
	tr.CutNode(leaf)
	tr.RestoreNode(leaf)
	if leaf.Powered() {
		t.Fatal("leaf powered with one of two nested cuts still active")
	}
	tr.RestoreNode(leaf)
	if !leaf.Powered() {
		t.Fatal("leaf dark after nested cuts fully restored")
	}
}

// scriptedConfig is a small fleet with one scripted cut, sized so a single
// PSU cut declares a failure and triggers a spare rebuild.
func scriptedConfig(script []CutEvent, spares int) Config {
	return Config{
		Domains:   DomainConfig{Racks: 2, EnclosuresPerRack: 2, PSUsPerEnclosure: 2},
		Arrays:    4,
		GroupSize: 4,
		Spares:    spares,
		Member:    MemberProfile{Pages: 1024},
		Rebuild:   RebuildPolicy{Delay: sim.Second, ControllerTick: 500 * sim.Millisecond},
		Faults:    FaultPlan{Script: script},
		Duration:  20 * sim.Second,
	}
}

// TestObsCountersSumMemberQueues: every member queue registers its own
// Stats under the one "blockdev" scope, so each blockdev counter reads
// the sum over the fleet's queues, spares included, and the fleet
// counters read the fleet's own counts.
func TestObsCountersSumMemberQueues(t *testing.T) {
	s := sim.Second
	cfg := scriptedConfig([]CutEvent{
		{At: sim.Time(2 * s), Level: Rack, Index: 0, Outage: 4 * s},
		{At: sim.Time(9 * s), Level: PSU, Index: 3, Outage: 2 * s},
	}, 2)
	f, err := NewSim(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	set := obs.NewSet(obs.Config{Metrics: true})
	f.Observe(set)
	st := f.Run()
	var q blockdev.Stats
	for _, m := range f.members {
		ms := m.queue.Stats()
		q.Submitted += ms.Submitted
		q.Rejected += ms.Rejected
		q.Completed += ms.Completed
		q.Errored += ms.Errored
		q.TimedOut += ms.TimedOut
		q.Splits += ms.Splits
	}
	sum := set.Summary()
	for name, want := range map[string]int64{
		"blockdev/submitted":      q.Submitted,
		"blockdev/rejected":       q.Rejected,
		"blockdev/completed":      q.Completed,
		"blockdev/errored":        q.Errored,
		"blockdev/timed_out":      q.TimedOut,
		"blockdev/splits":         q.Splits,
		"fleet/declared_failures": int64(st.DeclaredFailures),
		"fleet/slot_transitions":  f.transitions,
		"power/cuts":              int64(st.Cuts),
		"power/restores":          int64(st.Restores),
	} {
		if got := sum.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if q.Completed == 0 || f.transitions == 0 || st.DeclaredFailures == 0 {
		t.Errorf("run exercised too little: %d completed, %d transitions, %d declared failures",
			q.Completed, f.transitions, st.DeclaredFailures)
	}
}

// TestCutTotalsMatchLevelsAndObs: the tree's per-level counts are the
// only cut accounting, so the totals, the power counters and the trace
// instants must all agree with them. The script cuts one enclosure, then
// one PSU twice with overlapping outages.
func TestCutTotalsMatchLevelsAndObs(t *testing.T) {
	s := sim.Second
	cfg := scriptedConfig([]CutEvent{
		{At: sim.Time(2 * s), Level: Enclosure, Index: 1, Outage: s},
		{At: sim.Time(4 * s), Level: PSU, Index: 0, Outage: 5 * s},
		{At: sim.Time(6 * s), Level: PSU, Index: 0, Outage: 2 * s},
	}, 2)
	f, err := NewSim(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	set := obs.NewSet(obs.Config{Metrics: true, Trace: true, TraceCap: 1 << 20})
	f.Observe(set)
	st := f.Run()

	sum := func(m map[string]int) int {
		n := 0
		for _, v := range m {
			n += v
		}
		return n
	}
	if st.Cuts != 3 || st.Cuts != sum(st.CutsByLevel) {
		t.Errorf("cuts = %d, by level %v; want 3 and their sum", st.Cuts, st.CutsByLevel)
	}
	if st.Restores != 3 || st.Restores != sum(st.RestoresByLevel) {
		t.Errorf("restores = %d, by level %v; want 3 and their sum", st.Restores, st.RestoresByLevel)
	}
	if st.CutsByLevel["enclosure"] != 1 || st.CutsByLevel["psu"] != 2 {
		t.Errorf("cuts by level = %v, want enclosure 1, psu 2", st.CutsByLevel)
	}

	summary := set.Summary()
	if got := summary.Counter("power/cuts"); got != int64(st.Cuts) {
		t.Errorf("power/cuts = %d, want %d", got, st.Cuts)
	}
	if got := summary.Counter("power/restores"); got != int64(st.Restores) {
		t.Errorf("power/restores = %d, want %d", got, st.Restores)
	}
	if summary.TraceDropped != 0 {
		t.Fatalf("trace ring dropped %d events", summary.TraceDropped)
	}

	var got []string
	for _, ev := range set.Trace().Events() {
		if ev.Kind == obs.KindPower {
			got = append(got, fmt.Sprintf("%s %s=%d", ev.At, ev.Name, ev.Value))
		}
	}
	want := []string{
		fmt.Sprintf("%s rack0/enc1=1", sim.Time(2*s)),
		fmt.Sprintf("%s rack0/enc1=0", sim.Time(3*s)),
		fmt.Sprintf("%s rack0/enc0/psu0=1", sim.Time(4*s)),
		fmt.Sprintf("%s rack0/enc0/psu0=1", sim.Time(6*s)),
		fmt.Sprintf("%s rack0/enc0/psu0=0", sim.Time(8*s)),
		fmt.Sprintf("%s rack0/enc0/psu0=0", sim.Time(9*s)),
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("power instants:\n got %v\nwant %v", got, want)
	}
}

func TestSpareRebuildAfterPSUCut(t *testing.T) {
	cfg := scriptedConfig([]CutEvent{{At: sim.Time(2 * sim.Second), Level: PSU, Index: 0, Outage: 5 * sim.Second}}, 2)
	st, err := Run(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeclaredFailures == 0 {
		t.Fatal("5s outage with 1s grace declared no failures")
	}
	if st.SpareTakes == 0 {
		t.Error("no spare was taken despite 2 standby spares")
	}
	if st.RebuildCompleted == 0 {
		t.Error("no rebuild completed inside the horizon")
	}
	if st.RebuildReadBytes == 0 || st.RebuildWriteBytes == 0 {
		t.Errorf("rebuild traffic not measurable: reads=%d writes=%d", st.RebuildReadBytes, st.RebuildWriteBytes)
	}
	if st.DownTime != 0 {
		t.Errorf("single PSU cut caused %v down time; placement should keep groups degraded only", st.DownTime)
	}
	if st.LossEvents != 0 || st.BytesLost != 0 {
		t.Errorf("single-bay failures lost data: events=%d bytes=%d", st.LossEvents, st.BytesLost)
	}
	if st.CutsByLevel["psu"] != 1 {
		t.Errorf("cuts_by_level[psu] = %d, want 1", st.CutsByLevel["psu"])
	}
}

func TestTransientOutageRecovers(t *testing.T) {
	cfg := scriptedConfig([]CutEvent{{At: sim.Time(2 * sim.Second), Level: PSU, Index: 0, Outage: 200 * sim.Millisecond}}, 2)
	cfg.Rebuild.Delay = 5 * sim.Second // outage well inside the grace window
	st, err := Run(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeclaredFailures != 0 {
		t.Errorf("transient outage declared %d failures", st.DeclaredFailures)
	}
	if st.TransientRecoveries == 0 {
		t.Error("no transient recoveries recorded")
	}
	if st.SpareTakes != 0 {
		t.Errorf("transient outage consumed %d spares", st.SpareTakes)
	}
}

func TestDoubleFailureLosesData(t *testing.T) {
	// A rack cut downs every bay of the groups in that rack; with a grace
	// window shorter than the outage, redundancy is exceeded and the group
	// must charge a loss and restore from backup.
	cfg := scriptedConfig([]CutEvent{{At: sim.Time(2 * sim.Second), Level: Rack, Index: 0, Outage: 10 * sim.Second}}, 0)
	cfg.Duration = 40 * sim.Second
	st, err := Run(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st.LossEvents == 0 || st.BytesLost == 0 {
		t.Fatalf("rack-wide outage beyond grace lost nothing: events=%d bytes=%d", st.LossEvents, st.BytesLost)
	}
	if st.DownTime == 0 {
		t.Error("rack cut caused no down time")
	}
	if st.DurabilityNines >= NinesCap {
		t.Errorf("durability nines = %v despite data loss", st.DurabilityNines)
	}
}

// TestParityTwoSurvivesDoubleFailure pins the m+k loss rule: an enclosure
// cut downs exactly two bays of every group in its rack (placement puts
// one bay per PSU leaf), which exceeds a Parity=1 group's redundancy but
// stays inside a Parity=2 group's.
func TestParityTwoSurvivesDoubleFailure(t *testing.T) {
	script := []CutEvent{{At: sim.Time(2 * sim.Second), Level: Enclosure, Index: 0, Outage: 10 * sim.Second}}
	base := scriptedConfig(script, 0)
	base.Duration = 40 * sim.Second

	st5, err := Run(base, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st5.LossEvents == 0 || st5.DownTime == 0 {
		t.Fatalf("parity=1 fleet survived a two-bay outage: losses=%d down=%v", st5.LossEvents, st5.DownTime)
	}

	raid6 := base
	raid6.Parity = 2
	st6, err := Run(raid6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st6.Parity != 2 {
		t.Fatalf("stats parity %d, want 2", st6.Parity)
	}
	if st6.LossEvents != 0 || st6.BytesLost != 0 {
		t.Fatalf("parity=2 fleet lost data under two-bay outage: events=%d bytes=%d", st6.LossEvents, st6.BytesLost)
	}
	if st6.DownTime != 0 {
		t.Fatalf("parity=2 fleet went down under two-bay outage: %v", st6.DownTime)
	}
	if st6.DegradedTime == 0 {
		t.Fatal("parity=2 fleet recorded no degraded time despite the outage")
	}
	if st6.RebuildCompleted == 0 {
		t.Fatal("parity=2 fleet completed no resilver after power returned")
	}
}

func TestNinesDecreaseWithCutLevel(t *testing.T) {
	run := func(level Level) *Stats {
		cfg := scriptedConfig([]CutEvent{{At: sim.Time(2 * sim.Second), Level: level, Index: 0, Outage: 5 * sim.Second}}, 2)
		st, err := Run(cfg, 42)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	psu, rack, room := run(PSU), run(Rack), run(Room)
	if !(psu.AvailabilityNines > rack.AvailabilityNines) {
		t.Errorf("psu nines %v not > rack nines %v", psu.AvailabilityNines, rack.AvailabilityNines)
	}
	if !(rack.AvailabilityNines > room.AvailabilityNines) {
		t.Errorf("rack nines %v not > room nines %v", rack.AvailabilityNines, room.AvailabilityNines)
	}
}

func TestSimDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 10 * sim.Second
	a, err := Run(cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same seed diverged:\n%s\n%s", ja, jb)
	}
	c, err := Run(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := json.Marshal(c)
	if string(ja) == string(jc) {
		t.Fatal("different seeds produced identical stats")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Arrays: -1},
		{GroupSize: 1},
		{GroupSize: 4, Parity: 4},
		{Parity: -1},
		{Spares: -2},
		{Workload: WorkloadConfig{ReadFraction: 1.5}},
		{Faults: FaultPlan{Script: []CutEvent{{Level: Level(9), Outage: sim.Second}}}},
	}
	for i, c := range bad {
		if err := c.WithDefaults().Validate(); err == nil {
			t.Errorf("config %d validated despite bad field", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}
