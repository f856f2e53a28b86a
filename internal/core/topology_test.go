package core

import (
	"context"
	"testing"

	"powerfail/internal/array"
	"powerfail/internal/hdd"
	"powerfail/internal/ssd"
	"powerfail/internal/workload"
)

// memberProfile keeps array-member FTL maps small.
func memberProfile() ssd.Profile {
	p := ssd.ProfileA()
	p.CapacityGB = 1
	p.Channels = 4
	p.Dies = 4
	return p
}

func raidOpts(seed uint64, level array.Level, n int) Options {
	members := make([]ssd.Profile, n)
	for i := range members {
		members[i] = memberProfile()
	}
	return Options{
		Seed:     seed,
		Topology: Topology{Kind: TopoArray, Array: array.Config{Level: level, Members: members}},
	}
}

func cacheOpts(seed uint64, policy array.CachePolicy) Options {
	back := hdd.DefaultProfile()
	back.CapacityGB = 4
	return Options{
		Seed: seed,
		Topology: Topology{Kind: TopoArray, Array: array.Config{
			Level: array.Cached, Cache: memberProfile(), Backing: back, Policy: policy,
		}},
	}
}

func tinyWrites(wssMB int) workload.Spec {
	return workload.Spec{
		Name:     "w",
		WSSBytes: int64(wssMB) << 20,
		MinSize:  4 << 10,
		MaxSize:  64 << 10,
		Pattern:  workload.Random,
	}
}

// TestHDDTopology: the single-HDD topology runs the whole platform stack;
// a write-through disk never loses acknowledged data, and the report
// carries the HDD stats and cut/restore counts.
func TestHDDTopology(t *testing.T) {
	rep := runSmall(t, Options{Seed: 31, Topology: Topology{Kind: TopoHDD}}, ExperimentSpec{
		Name: "hdd", Workload: tinyWrites(256), Faults: 4, RequestsPerFault: 8,
	})
	if rep.Profile != "HDD" {
		t.Fatalf("profile = %q", rep.Profile)
	}
	if rep.HDDStats == nil || rep.HDDStats.Deaths == 0 {
		t.Fatalf("hdd stats missing or no deaths: %+v", rep.HDDStats)
	}
	if rep.Cuts != 4 || rep.Restores != 4 {
		t.Fatalf("cuts=%d restores=%d, want 4/4", rep.Cuts, rep.Restores)
	}
	if losses := rep.DataLosses(); losses != 0 {
		t.Fatalf("write-through HDD lost %d acknowledged requests", losses)
	}
}

// TestHDDAnswersEveryCommandOverManyCuts: a write-through HDD must answer
// every command it accepted, or each cut leaks a block-layer slot and the
// queue wedges once Depth of them are gone. A hundred faults of the
// default workload go well past the 32-slot depth.
func TestHDDAnswersEveryCommandOverManyCuts(t *testing.T) {
	p, err := NewPlatform(Options{Seed: 7, Topology: Topology{Kind: TopoHDD}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, ExperimentSpec{
		Name: "hdd-law", Workload: workload.DefaultSpec(), Faults: 100, RequestsPerFault: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("after %d faults: %v", rep.Faults, err)
	}
	if rep.HostStats.TimedOut != 0 {
		t.Fatalf("%d requests timed out", rep.HostStats.TimedOut)
	}
	if n, m := p.Host.Inflight(), p.Host.PendingSubs(); n != 0 || m != 0 {
		t.Fatalf("block layer holds %d in-flight and %d pending sub-requests", n, m)
	}
}

// TestRAIDTopologiesUnderFaults: RAID-1 and RAID-5 run under fault
// injection with per-member failure attribution in the report.
func TestRAIDTopologiesUnderFaults(t *testing.T) {
	cases := []struct {
		name  string
		level array.Level
		n     int
		wssMB int
	}{
		{"raid1x2", array.RAID1, 2, 256},
		{"raid5x3", array.RAID5, 3, 512},
	}
	for _, tc := range cases {
		rep := runSmall(t, raidOpts(41, tc.level, tc.n), ExperimentSpec{
			Name: tc.name, Workload: tinyWrites(tc.wssMB), Faults: 6, RequestsPerFault: 10,
		})
		if rep.Faults != 6 {
			t.Fatalf("%s: faults=%d", tc.name, rep.Faults)
		}
		if rep.ArrayStats == nil || len(rep.Members) != tc.n {
			t.Fatalf("%s: array stats/members missing: %+v", tc.name, rep.Members)
		}
		served := int64(0)
		attributed := 0
		for _, m := range rep.Members {
			served += m.Reads + m.Writes
			attributed += m.DataFailures + m.FWA + m.IOErrors
			if m.Deaths == 0 {
				t.Fatalf("%s: member %d never died — faults not correlated?", tc.name, m.Index)
			}
		}
		if served == 0 {
			t.Fatalf("%s: members served nothing", tc.name)
		}
		total := rep.Counters.DataFailures + rep.Counters.FWA + rep.Counters.IOErrors
		if total > 0 && attributed == 0 {
			t.Fatalf("%s: %d failures but none attributed to members", tc.name, total)
		}
		if total == 0 {
			t.Logf("%s: no failures this run (seed-dependent)", tc.name)
		}
	}
}

// TestCachePolicyLossUnderFaults is the acceptance assertion: a write-back
// SSD cache over an HDD loses acknowledged data under power faults, while
// the write-through configuration does not.
func TestCachePolicyLossUnderFaults(t *testing.T) {
	spec := ExperimentSpec{
		Name: "cache", Workload: tinyWrites(256), Faults: 6, RequestsPerFault: 12,
	}
	wb := runSmall(t, cacheOpts(51, array.WriteBack), spec)
	if wb.DataLosses() == 0 {
		t.Fatalf("write-back cache lost nothing over %d faults:\n%s", wb.Faults, wb)
	}
	if wb.ArrayStats == nil || wb.ArrayStats.CacheHits == 0 {
		t.Fatalf("write-back ran without cache hits: %+v", wb.ArrayStats)
	}
	// The dirty lines live only on the cache SSD, so the attribution must
	// point at the cache member, not the backing drive.
	if wb.Members[0].Role != "cache" || wb.Members[0].DataFailures+wb.Members[0].FWA == 0 {
		t.Fatalf("loss not attributed to the cache member: %+v", wb.Members)
	}

	wt := runSmall(t, cacheOpts(51, array.WriteThrough), spec)
	if losses := wt.DataLosses(); losses != 0 {
		t.Fatalf("write-through cache lost %d acknowledged requests:\n%s", losses, wt)
	}
}
