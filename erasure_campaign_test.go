package powerfail_test

import (
	"context"
	"strings"
	"testing"

	"powerfail"
)

// runErasureFigure executes the erasure catalog at a small scale and
// fails on any item error.
func runErasureFigure(t *testing.T, parallelism int) *powerfail.CampaignResult {
	t.Helper()
	items := smallItems(t, "erasure", 0.02)
	out, err := powerfail.NewCampaign(items,
		powerfail.WithParallelism(parallelism),
	).Run(context.Background())
	if err != nil {
		t.Fatalf("parallelism %d: %v", parallelism, err)
	}
	if out.Completed != len(items) {
		t.Fatalf("completed %d, want %d", out.Completed, len(items))
	}
	return out
}

// TestErasureCampaignParallelDeterminism: the "erasure" figure produces
// byte-identical reports at parallelism 1 and 8 — the coded RMW and
// reconstruction paths introduce no scheduling nondeterminism.
func TestErasureCampaignParallelDeterminism(t *testing.T) {
	seq := runErasureFigure(t, 1)
	par := runErasureFigure(t, 8)
	seqEnc, parEnc := encodeReports(t, seq), encodeReports(t, par)
	for i := range seqEnc {
		if seqEnc[i] != parEnc[i] {
			t.Fatalf("erasure item %d (%s) diverged between parallelism 1 and 8:\n%s\n%s",
				i, seq.Results[i].Item.Label, seqEnc[i], parEnc[i])
		}
	}
}

// TestErasureFigureCoverage: every advertised point ran on the geometry
// its label names, exercised the parity RMW path, and the mixed points
// really carry the QLC straggler as their last member.
func TestErasureFigureCoverage(t *testing.T) {
	out := runErasureFigure(t, 4)
	wantMembers := map[string]int{"raid5": 5, "raid6": 6, "rs8+3": 11}
	codesSeen := map[string]bool{}
	mixesSeen := map[string]bool{}
	cutsSeen := map[string]bool{}
	for _, res := range out.Results {
		parts := strings.Split(res.Item.Label, "/")
		if len(parts) != 3 {
			t.Fatalf("label shape changed: %q", res.Item.Label)
		}
		code, mix, cut := parts[0], parts[1], parts[2]
		codesSeen[code], mixesSeen[mix], cutsSeen[cut] = true, true, true

		r := res.Report
		if r.ArrayStats == nil {
			t.Fatalf("%s: report carries no array stats", res.Item.Label)
		}
		if r.ArrayStats.ParityRMWs == 0 {
			t.Errorf("%s: no parity RMW cycles", res.Item.Label)
		}
		if got, want := len(r.Members), wantMembers[code]; got != want {
			t.Errorf("%s: %d member reports, want %d", res.Item.Label, got, want)
		}
		last := r.Members[len(r.Members)-1]
		if mix == "mixed" && last.Name != "Q" {
			t.Errorf("%s: last member is %q, want the QLC straggler Q", res.Item.Label, last.Name)
		}
		if mix == "uniform" && last.Name != "A" {
			t.Errorf("%s: last member is %q, want A", res.Item.Label, last.Name)
		}
	}
	for _, want := range []string{"raid5", "raid6", "rs8+3"} {
		if !codesSeen[want] {
			t.Errorf("figure covers no %q code points", want)
		}
	}
	for _, want := range []string{"uniform", "mixed"} {
		if !mixesSeen[want] {
			t.Errorf("figure covers no %q mix points", want)
		}
	}
	for _, want := range []string{"soft", "hard"} {
		if !cutsSeen[want] {
			t.Errorf("figure covers no %q cut points", want)
		}
	}
}

// TestMemberFailuresConserved: with one-page writes every lost packet
// sits on one data member, so the per-member data failures, FWAs and IO
// errors of a parity array each sum to the report's totals. A charge to
// the stripe's parity members would count each failure 1+k times.
func TestMemberFailuresConserved(t *testing.T) {
	member := powerfail.ProfileA()
	member.CapacityGB = 8
	for _, cfg := range []powerfail.ArrayConfig{
		powerfail.RAIDConfig(powerfail.RAID5, 5, member),
		powerfail.RAIDConfig(powerfail.RAID6, 6, member),
		powerfail.RSConfig(8, 3, member),
	} {
		rep, err := powerfail.Run(
			powerfail.Options{Seed: 7, Topology: powerfail.ArrayTopology(cfg)},
			powerfail.Experiment{
				Name: "member-conservation",
				Workload: powerfail.Workload{
					Name:     "one-page-writes",
					WSSBytes: 2 << 30,
					MinSize:  4 << 10,
					MaxSize:  4 << 10,
				},
				Faults:           10,
				RequestsPerFault: 12,
			})
		if err != nil {
			t.Fatal(err)
		}
		var data, fwa, ioErrs int
		for _, m := range rep.Members {
			data += m.DataFailures
			fwa += m.FWA
			ioErrs += m.IOErrors
		}
		c := rep.Counters
		if data != c.DataFailures || fwa != c.FWA || ioErrs != c.IOErrors {
			t.Errorf("%v: members sum to %d data failures, %d FWA, %d IO errors; report totals %d, %d, %d",
				cfg.Level, data, fwa, ioErrs, c.DataFailures, c.FWA, c.IOErrors)
		}
		if c.DataFailures+c.FWA == 0 {
			t.Errorf("%v: no failures to conserve", cfg.Level)
		}
	}
}

// TestErasureWeakestMember: on one seed of a mixed RAID-6 array under
// the rig's soft cut, the QLC straggler's bigger, slower volatile cache
// loses more dirty pages than its drive-A siblings average, and the data
// failures charged to the pages it held are at least their average. The
// erasure figure's soft RAID-6 point shows the same over 16 seeds (see
// ErasureItems); the other points show a small effect or none.
func TestErasureWeakestMember(t *testing.T) {
	member := powerfail.ProfileA()
	member.CapacityGB = 8
	weak := powerfail.ProfileQ()
	weak.CapacityGB = 8
	cfg := powerfail.MixedRAIDConfig(powerfail.RAID6,
		member, member, member, member, member, weak)

	rep, err := powerfail.Run(
		powerfail.Options{Seed: 21, Topology: powerfail.ArrayTopology(cfg)},
		powerfail.Experiment{
			Name: "erasure-weakest",
			Workload: powerfail.Workload{
				Name:     "erasure-writes",
				WSSBytes: 2 << 30,
				MinSize:  4 << 10,
				MaxSize:  64 << 10,
			},
			Faults:           20,
			RequestsPerFault: 12,
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Members) != 6 {
		t.Fatalf("member reports: %d, want 6", len(rep.Members))
	}
	q := rep.Members[5]
	if q.Name != "Q" {
		t.Fatalf("last member is %q, want Q", q.Name)
	}
	var sibDirty int64
	var sibData int
	for _, m := range rep.Members[:5] {
		sibDirty += m.DirtyPagesLost
		sibData += m.DataFailures
	}
	if q.DirtyPagesLost*5 <= sibDirty {
		t.Errorf("weak member lost %d dirty pages, not above the sibling mean %d",
			q.DirtyPagesLost, sibDirty/5)
	}
	if q.DataFailures*5 < sibData {
		t.Errorf("weak member's %d attributed data failures below the sibling mean %d",
			q.DataFailures, sibData/5)
	}
}
