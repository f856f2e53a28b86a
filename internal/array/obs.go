package array

import (
	"powerfail/internal/obs"
)

// Observe attaches the array to an observability scope: the multi-device
// failure phenomena it counts in Stats (parity write holes, parity
// read-modify-writes and degraded-read reconstructions) become counters
// the registry reads, and each is also recorded as a trace instant. A
// disabled scope is a no-op.
func (a *Array) Observe(sc obs.Scope) {
	if !sc.Enabled() {
		return
	}
	st := &a.stats
	sc.Count("write_holes", &st.WriteHoles)
	sc.Count("reconstructions", &st.Reconstructions)
	sc.Count("parity_rmws", &st.ParityRMWs)
	a.tele = sc
}
