package fleet

import (
	"fmt"

	"powerfail/internal/obs"
)

// fleetObs holds the Sim's observability handles; the zero value is the
// disabled state (nil handles no-op).
type fleetObs struct {
	sc          obs.Scope
	transitions *obs.Counter
	declared    *obs.Counter
	windowHist  *obs.Histogram
	active      *obs.Gauge
	fgLat       *obs.Histogram
	fgDegLat    *obs.Histogram

	power    obs.Scope
	cuts     *obs.Counter
	restores *obs.Counter
}

// Observe attaches the fleet to an observability set: power edges per
// tree node under "power", slot state transitions and rebuild windows
// under "fleet", and every member's block layer sharing one "blockdev"
// scope (their latency samples merge into one fleet-wide distribution).
// Call before Run; a nil set is a no-op.
func (f *Sim) Observe(set *obs.Set) {
	if set == nil {
		return
	}
	sc, power := set.Scope("fleet"), set.Scope("power")
	f.obs = fleetObs{
		sc:          sc,
		transitions: sc.Counter("slot_transitions"),
		declared:    sc.Counter("declared_failures"),
		windowHist:  sc.Histogram("rebuild_window_ns"),
		active:      sc.Gauge("active_rebuilds"),
		fgLat:       sc.Histogram("fg_latency_ns"),
		fgDegLat:    sc.Histogram("fg_degraded_latency_ns"),
		power:       power,
		cuts:        power.Counter("cuts"),
		restores:    power.Counter("restores"),
	}
	for _, m := range f.members {
		m.queue.Observe(set.Scope("blockdev"))
	}
}

// bayName identifies a slot in trace events: "g3/bay1".
func (s *Slot) bayName() string { return fmt.Sprintf("g%d/bay%d", s.g.id, s.idx) }

// setState performs a state transition, recording it as a KindState
// trace event ("g3/bay1 healthy>rebuilding") and a transition counter
// point. It does not recount the group; call sites keep that.
func (s *Slot) setState(st SlotState) {
	if st == s.state {
		return
	}
	f := s.g.f
	f.obs.transitions.Inc()
	if f.obs.sc.TracingOn() {
		f.obs.sc.Instant(f.k.Now(), obs.KindState,
			s.bayName()+" "+s.state.String()+">"+st.String(), int64(st))
	}
	s.state = st
}
