package txn

import (
	"powerfail/internal/obs"
)

// engineObs holds the engine's observability handles; the zero value is
// the disabled state (nil handles no-op).
type engineObs struct {
	sc        obs.Scope
	commitLat *obs.Histogram
}

// Instrument attaches the engine to an observability scope: counters the
// registry reads from the engine's own counts, a begin-to-ack commit
// latency histogram, and txn lifecycle and recovery-scan trace events.
// (Observe is taken by the oracle's recovery-read recording.) A disabled
// scope is a no-op.
func (e *Engine) Instrument(sc obs.Scope) {
	if !sc.Enabled() {
		return
	}
	sc.Count("begins", &e.stats.Started)
	sc.Count("commits", &e.stats.Committed)
	sc.Count("aborts", &e.aborts)
	sc.Count("recovery_scans", &e.stats.RecoveryScans)
	sc.Count("recovery_scan_pages", &e.folds[e.cfg.Policy].scanPages)
	e.tele = engineObs{sc: sc, commitLat: sc.Histogram("commit_latency_ns")}
}
