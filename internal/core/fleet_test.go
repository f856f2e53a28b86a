package core

import (
	"context"
	"testing"

	"powerfail/internal/fleet"
	"powerfail/internal/sim"
)

// TestFleetExperimentThroughCore runs the fleet path via the ordinary
// RunExperiment entry point.
func TestFleetExperimentThroughCore(t *testing.T) {
	cfg := fleet.Config{
		Arrays:   4,
		Spares:   2,
		Member:   fleet.MemberProfile{Pages: 1024},
		Rebuild:  fleet.RebuildPolicy{Delay: sim.Second},
		Duration: 20 * sim.Second,
	}
	rep, err := RunExperiment(context.Background(), Options{Seed: 5, Fleet: &cfg}, ExperimentSpec{Name: "fleet-smoke"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Source != "fleet" {
		t.Errorf("source = %q, want fleet", rep.Source)
	}
	if rep.Fleet == nil {
		t.Fatal("report has no fleet stats")
	}
	if rep.Cuts == 0 || rep.Cuts != rep.Fleet.Cuts {
		t.Errorf("cuts: report=%d fleet=%d", rep.Cuts, rep.Fleet.Cuts)
	}
	if rep.Fleet.Events == 0 || rep.Requests == 0 {
		t.Errorf("fleet ran no work: events=%d requests=%d", rep.Fleet.Events, rep.Requests)
	}
	if len(rep.String()) == 0 {
		t.Error("empty String()")
	}

	// spec.Faults overrides the random plan's cut count.
	rep2, err := RunExperiment(context.Background(), Options{Seed: 5, Fleet: &cfg}, ExperimentSpec{Name: "fleet-smoke", Faults: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Fleet.Cuts != 5 {
		t.Errorf("spec.Faults=5 produced %d cuts", rep2.Fleet.Cuts)
	}
}
