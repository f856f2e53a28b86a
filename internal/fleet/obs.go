package fleet

import (
	"fmt"

	"powerfail/internal/obs"
)

// fleetObs holds the Sim's observability handles; the zero value is the
// disabled state (nil handles no-op).
type fleetObs struct {
	sc         obs.Scope
	windowHist *obs.Histogram
	active     *obs.Gauge
	fgLat      *obs.Histogram
	fgDegLat   *obs.Histogram

	power obs.Scope
}

// Observe attaches the fleet to an observability set: power edges per
// tree node under "power", slot state transitions and rebuild windows
// under "fleet", and every member's block layer sharing one "blockdev"
// scope (their latency samples merge into one fleet-wide distribution,
// their request counts add up). The counters read the fleet's own
// counts. Call once, before Run; a nil set is a no-op.
func (f *Sim) Observe(set *obs.Set) {
	if set == nil {
		return
	}
	sc, power := set.Scope("fleet"), set.Scope("power")
	sc.Count("slot_transitions", &f.transitions)
	sc.Count("declared_failures", &f.stats.DeclaredFailures)
	for l := range f.tree.cuts { // the tree counts each cut once, at its level
		power.Count("cuts", &f.tree.cuts[l])
		power.Count("restores", &f.tree.restores[l])
	}
	f.obs = fleetObs{
		sc:         sc,
		windowHist: sc.Histogram("rebuild_window_ns"),
		active:     sc.Gauge("active_rebuilds"),
		fgLat:      sc.Histogram("fg_latency_ns"),
		fgDegLat:   sc.Histogram("fg_degraded_latency_ns"),
		power:      power,
	}
	for _, m := range f.members {
		m.queue.Observe(set.Scope("blockdev"))
	}
}

// bayName identifies a slot in trace events: "g3/bay1".
func (s *Slot) bayName() string { return fmt.Sprintf("g%d/bay%d", s.g.id, s.idx) }

// setState performs a state transition, counting it and recording it as
// a KindState trace event ("g3/bay1 healthy>rebuilding"). It does not
// recount the group; call sites keep that.
func (s *Slot) setState(st SlotState) {
	if st == s.state {
		return
	}
	f := s.g.f
	f.transitions++
	if f.obs.sc.TracingOn() {
		f.obs.sc.Instant(f.k.Now(), obs.KindState,
			s.bayName()+" "+s.state.String()+">"+st.String(), int64(st))
	}
	s.state = st
}
