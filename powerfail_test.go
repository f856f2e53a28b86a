package powerfail_test

import (
	"context"
	"math"
	"testing"

	"powerfail"
	"powerfail/internal/sim"
)

func TestPublicAPIRun(t *testing.T) {
	prof := powerfail.ProfileA()
	prof.CapacityGB = 8
	w := powerfail.DefaultWorkload()
	w.WSSBytes = 1 << 30 // must fit the shrunken test drive
	rep, err := powerfail.Run(
		powerfail.Options{Seed: 5, Profile: prof},
		powerfail.Experiment{
			Name:             "api",
			Workload:         w,
			Faults:           5,
			RequestsPerFault: 10,
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != 5 || rep.Requests == 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestProfiles(t *testing.T) {
	if len(powerfail.Profiles()) != 3 {
		t.Fatal("expected the three Table I drives")
	}
	if powerfail.ProfileB().Cell != powerfail.TLC {
		t.Fatal("SSD B should be TLC")
	}
	if _, ok := powerfail.ProfileByName("C"); !ok {
		t.Fatal("ProfileByName failed")
	}
}

// catalogFigures is every figure id ItemsFor accepts besides "all".
var catalogFigures = []string{
	"tablei", "window", "fig5", "fig6", "seqrand", "fig7", "fig8", "fig9",
	"ablation", "array", "erasure", "cache", "txn", "txn-streams", "trace",
	"fleet",
}

func TestCatalogCoverage(t *testing.T) {
	total := 0
	for _, fig := range catalogFigures {
		items, err := powerfail.ItemsFor(fig, 0.01)
		if err != nil {
			t.Fatalf("%s: %v", fig, err)
		}
		if len(items) == 0 {
			t.Fatalf("%s: empty series", fig)
		}
		for _, it := range items {
			if it.Opts.Fleet != nil {
				// Fleet items carry no workload or fault-cycle spec; the
				// whole experiment lives in the fleet configuration.
				if err := it.Opts.Fleet.WithDefaults().Validate(); err != nil {
					t.Fatalf("%s/%s: %v", fig, it.Label, err)
				}
			} else if it.Opts.App.Enabled() {
				// Application-layer items carry no workload; the spec is
				// validated by NewRunner against the app configuration.
				if it.Spec.Faults <= 0 || it.Spec.RequestsPerFault <= 0 {
					t.Fatalf("%s/%s: bad fault cycle config", fig, it.Label)
				}
			} else if err := it.Spec.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", fig, it.Label, err)
			}
			if it.Figure != fig {
				t.Fatalf("%s/%s: figure tag %q", fig, it.Label, it.Figure)
			}
		}
		total += len(items)
	}
	all, err := powerfail.ItemsFor("all", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != total {
		t.Fatalf("all = %d items, sum of figures = %d", len(all), total)
	}
	if _, err := powerfail.ItemsFor("nope", 1); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if _, err := powerfail.ItemsFor("", 1); err == nil {
		t.Fatal("empty figure id accepted")
	}
}

// TestItemsForRejectsBadScale: a scale that is not a positive finite
// number is an error, for one figure and for the whole catalog, not a run
// at the fault-count floor.
func TestItemsForRejectsBadScale(t *testing.T) {
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -0.2} {
		for _, fig := range []string{"fig5", "all"} {
			if items, err := powerfail.ItemsFor(fig, scale); err == nil {
				t.Errorf("ItemsFor(%q, %v) returned %d items, want an error", fig, scale, len(items))
			}
		}
	}
	if _, err := powerfail.ItemsFor("fig5", math.SmallestNonzeroFloat64); err != nil {
		t.Errorf("a tiny positive scale: %v", err)
	}
}

// TestCatalogSeedsDeterministic: two ItemsFor calls produce the same item
// seeds — in particular for the new composite-topology figures, whose
// platforms are built from several forked RNG streams.
func TestCatalogSeedsDeterministic(t *testing.T) {
	for _, fig := range []string{"array", "cache"} {
		a, err := powerfail.ItemsFor(fig, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		b, err := powerfail.ItemsFor(fig, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: item count diverged", fig)
		}
		seen := map[uint64]string{}
		for i := range a {
			if a[i].Opts.Seed == 0 {
				t.Fatalf("%s/%s: zero seed", fig, a[i].Label)
			}
			if a[i].Opts.Seed != b[i].Opts.Seed || a[i].Label != b[i].Label {
				t.Fatalf("%s item %d not deterministic: %+v vs %+v", fig, i, a[i], b[i])
			}
			if prev, dup := seen[a[i].Opts.Seed]; dup {
				t.Fatalf("%s: %s and %s share seed %d", fig, prev, a[i].Label, a[i].Opts.Seed)
			}
			seen[a[i].Opts.Seed] = a[i].Label
		}
		if a[0].Opts.Topology.Kind != powerfail.TopoArray {
			t.Fatalf("%s items do not use the array topology", fig)
		}
	}
}

// TestArrayFigureRuns: the array catalog runs end to end through the
// public API with per-member attribution in every report.
func TestArrayFigureRuns(t *testing.T) {
	items, err := powerfail.ItemsFor("array", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	out, err := powerfail.NewCampaign(items[:2]).Run(context.Background()) // raid0x2 and raid0x4
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Item.Label, r.Err)
		}
		if r.Report.ArrayStats == nil || len(r.Report.Members) == 0 {
			t.Fatalf("%s: no member attribution in report", r.Item.Label)
		}
		if r.Report.Cuts == 0 || r.Report.Restores == 0 {
			t.Fatalf("%s: cut/restore counts missing: %d/%d",
				r.Item.Label, r.Report.Cuts, r.Report.Restores)
		}
	}
}

func TestDischargeCurve(t *testing.T) {
	curve, brownout := powerfail.DischargeCurve(true, 10*sim.Millisecond, sim.Second)
	if len(curve) == 0 {
		t.Fatal("empty curve")
	}
	if curve[0].V != 5.0 {
		t.Fatalf("V(0) = %g", curve[0].V)
	}
	ms := brownout.Millis()
	if ms < 30 || ms > 50 {
		t.Fatalf("brownout at %.0f ms, want ~40", ms)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].V > curve[i-1].V {
			t.Fatal("discharge curve not monotonic")
		}
	}
	unloaded, _ := powerfail.DischargeCurve(false, 10*sim.Millisecond, sim.Second)
	if unloaded[len(unloaded)-1].V <= curve[len(curve)-1].V {
		t.Fatal("unloaded rail should sit higher than loaded at equal times")
	}
}
