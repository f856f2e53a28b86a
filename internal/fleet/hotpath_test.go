package fleet

import (
	"testing"

	"powerfail/internal/racedet"
	"powerfail/internal/sim"
)

// hotSim builds a small fleet without running it, so its kernel holds
// only what a test schedules, and warms every hot-path pool.
func hotSim(tb testing.TB) *Sim {
	tb.Helper()
	f, err := NewSim(scriptedConfig(nil, 0), 1)
	if err != nil {
		tb.Fatal(err)
	}
	g := f.groups[0]
	for i := 0; i < 4; i++ {
		fgOp(f, g, i, true)
		fgOp(f, g, i, false)
		rebuildChunk(f, g.slots[i], rebuildIntra)
		rebuildChunk(f, g.slots[i], rebuildInter)
	}
	return f
}

// fgOp serves one foreground request on bay si and runs it to completion.
func fgOp(f *Sim, g *Group, si int, read bool) {
	f.serveForeground(g, si, int64(si)*8, read)
	f.k.Run()
}

// rebuildChunk runs one rebuild chunk onto the bay: the survivor reads
// (intra-group) or the backup fetch (inter-group), then the target write.
// The chunk is the bay's last, so the bay is healthy again afterwards.
func rebuildChunk(f *Sim, s *Slot, mode rebuildMode) {
	s.setState(SlotRebuilding)
	s.g.recount()
	s.mode = mode
	s.rebuilt = s.member.prof.Pages - int64(f.cfg.Rebuild.ChunkPages)
	s.step(s.rbGen)
	f.k.Run()
}

// TestFleetSteadyStateAllocs pins the fleet member path at zero
// allocations once its pools are warm: foreground reads and writes on a
// healthy and on a degraded group, and a rebuild chunk of either mode.
func TestFleetSteadyStateAllocs(t *testing.T) {
	if racedet.Enabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	f := hotSim(t)
	g := f.groups[0]
	check := func(what string, op func()) {
		t.Helper()
		ops := f.stats.FgOps
		if n := testing.AllocsPerRun(50, op); n != 0 {
			t.Errorf("%s made %v allocs, want 0", what, n)
		}
		if f.stats.FgFailed != 0 {
			t.Fatalf("%s: %d of %d foreground ops failed", what, f.stats.FgFailed, f.stats.FgOps-ops)
		}
	}
	check("healthy read", func() { fgOp(f, g, 1, true) })
	check("healthy write", func() { fgOp(f, g, 1, false) })

	g.slots[1].setState(SlotDegraded)
	g.recount()
	reads := g.slots[2].member.Stats().ForegroundReadPages
	check("degraded read", func() { fgOp(f, g, 1, true) })
	if g.slots[2].member.Stats().ForegroundReadPages == reads {
		t.Fatal("degraded read did not reconstruct from the survivors")
	}
	check("degraded write", func() { fgOp(f, g, 1, false) })
	g.slots[1].setState(SlotHealthy)
	g.recount()

	s := g.slots[3]
	rebuildReads := g.slots[0].member.Stats().RebuildReadPages
	check("intra-group rebuild chunk", func() { rebuildChunk(f, s, rebuildIntra) })
	if s.state != SlotHealthy || g.slots[0].member.Stats().RebuildReadPages == rebuildReads {
		t.Fatalf("intra-group chunk did not run: bay %v, survivor read %d pages",
			s.state, g.slots[0].member.Stats().RebuildReadPages-rebuildReads)
	}
	rebuildReads = g.slots[0].member.Stats().RebuildReadPages
	rebuildWrites := s.member.Stats().RebuildWritePages
	check("inter-group rebuild chunk", func() { rebuildChunk(f, s, rebuildInter) })
	if s.state != SlotHealthy || s.member.Stats().RebuildWritePages == rebuildWrites ||
		g.slots[0].member.Stats().RebuildReadPages != rebuildReads {
		t.Fatalf("inter-group chunk did not run alone: bay %v", s.state)
	}
}

// TestFleetRecordsReturn runs a fleet through a declared failure and a
// spare rebuild, with foreground traffic off, past the rebuild's end:
// every pooled record the run built must be back on its free list.
func TestFleetRecordsReturn(t *testing.T) {
	cfg := scriptedConfig([]CutEvent{{At: sim.Time(2 * sim.Second), Level: PSU, Index: 0, Outage: 5 * sim.Second}}, 2)
	cfg.Workload.MeanInterarrival = -1
	f, err := NewSim(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	st := f.Run()
	if st.DeclaredFailures == 0 || st.SpareTakes == 0 || st.RebuildCompleted == 0 {
		t.Fatalf("no spare rebuild ran: declared %d, spares taken %d, rebuilds completed %d",
			st.DeclaredFailures, st.SpareTakes, st.RebuildCompleted)
	}
	if f.activeRebuilds != 0 {
		t.Fatalf("%d rebuilds still open at the horizon", f.activeRebuilds)
	}
	if f.chunks.InUse() != 0 || f.ios.InUse() != 0 || f.svcs.InUse() != 0 {
		t.Errorf("fleet records still out: %d chunks, %d io records, %d service calls",
			f.chunks.InUse(), f.ios.InUse(), f.svcs.InUse())
	}
	if reqs, calls := f.pools.InUse(); reqs != 0 || calls != 0 {
		t.Errorf("block-layer records still out: %d requests, %d sub-calls", reqs, calls)
	}
}

// BenchmarkFleetForegroundOp serves one foreground op per iteration,
// reads and writes alternating, from fan-out to the last member's
// completion.
func BenchmarkFleetForegroundOp(b *testing.B) {
	f := hotSim(b)
	g := f.groups[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fgOp(f, g, i%len(g.slots), i%2 == 0)
	}
}

// BenchmarkFleetRebuildChunk runs one intra-group rebuild chunk per
// iteration: the survivor reads and the write to the rebuilding bay.
func BenchmarkFleetRebuildChunk(b *testing.B) {
	f := hotSim(b)
	g := f.groups[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rebuildChunk(f, g.slots[i%len(g.slots)], rebuildIntra)
	}
}
