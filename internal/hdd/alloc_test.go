package hdd

import (
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/racedet"
	"powerfail/internal/sim"
)

// TestIOAllocatesNothing pins the disk's command path: on a warmed
// 2 GB disk, 8-page writes and 8-page reads allocate nothing, and every
// read lends back what the last write to its pages stored.
func TestIOAllocatesNothing(t *testing.T) {
	if racedet.Enabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	prof := DefaultProfile()
	prof.CapacityGB = 2
	r := newRig(t, prof)
	const pages, slots = 8, 16
	payloads := make([]content.Data, slots+1)
	for i := range payloads {
		payloads[i] = content.Random(sim.NewRNG(uint64(i+1)), pages)
	}
	var (
		want          [slots]content.Data
		slot, nw, bad int
		nr            int
		waiting       bool
	)
	busy := func() bool { return waiting }
	wrote := func(err error, _ content.Data) {
		if err != nil {
			bad++
		}
		waiting = false
	}
	read := func(err error, got content.Data) {
		if err != nil || !got.Equal(want[slot]) {
			bad++
		}
		waiting = false
	}
	write := func() {
		nw++
		slot = nw % slots
		want[slot] = payloads[nw%len(payloads)]
		waiting = true
		r.disk.Submit(blockdev.OpWrite, addr.LPN(slot*pages), pages, want[slot], wrote)
		r.k.RunWhile(busy)
	}
	readBack := func() {
		nr++
		slot = nr % slots
		waiting = true
		r.disk.Submit(blockdev.OpRead, addr.LPN(slot*pages), pages, content.Data{}, read)
		r.k.RunWhile(busy)
	}
	for i := 0; i < 2*slots; i++ {
		write()
		readBack()
	}
	if a := testing.AllocsPerRun(50, write); a != 0 {
		t.Errorf("8-page write made %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(50, readBack); a != 0 {
		t.Errorf("8-page read made %v allocs, want 0", a)
	}
	if bad != 0 {
		t.Fatalf("%d commands failed or read back wrong", bad)
	}
	if st := r.disk.Stats(); st.Reads == 0 || st.Writes == 0 {
		t.Fatalf("stats %+v: the loop served no IO", st)
	}
}
