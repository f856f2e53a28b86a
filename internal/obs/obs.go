// Package obs is the deterministic observability layer threaded through
// the simulation stack: a sim-time metrics registry (counters, gauges,
// log-bucketed latency histograms), a bounded ring buffer of typed trace
// events, and exporters (a text metric dump, OpenMetrics text, Chrome
// trace-event JSON viewable in Perfetto).
//
// Counters are read, not pushed: a layer registers the address of a
// count it already keeps (Scope.Count), and the registry reads every
// registered count at snapshot time. Each fact is counted once, in the layer that owns it,
// and the obs counter cannot drift from the report field it mirrors.
//
// Two properties are load-bearing:
//
//   - Zero overhead when disabled. Gauge and Histogram handles are
//     nil-safe: methods on a nil receiver return immediately, and a
//     zero-value Scope hands out nil handles and ignores Count. Code can
//     therefore instrument unconditionally; with observability off the
//     instrumented path costs one nil check, and counters cost nothing.
//
//   - Determinism. All metric and trace values are keyed to simulated
//     time and per-item state only — never wall-clock time, map
//     iteration order, or goroutine interleaving — so two runs of the
//     same seed produce byte-identical dumps at any campaign
//     parallelism. Wall-clock telemetry (events/s, per-item duration)
//     lives outside this package's dumps, in campaign-level fields that
//     are excluded from serialized reports.
package obs

import "powerfail/internal/sim"

// DefaultTraceCap bounds the trace ring buffer when Config.TraceCap is
// left zero. Old events are dropped FIFO past the cap (deterministically:
// the drop point depends only on the event sequence, not on timing). The
// cap bounds retention, not allocation: the ring's storage grows in
// 16 KiB chunks of 32-byte records as events are recorded, so a run that
// records a few thousand events holds a few chunks, not 2 MiB.
const DefaultTraceCap = 1 << 16

// Config selects which observability features a run records. The zero
// value (and a nil *Config) disables everything; reports produced with
// observability disabled are byte-identical to reports from builds that
// predate this package.
type Config struct {
	// Metrics enables the sim-time registry: counters, gauges and
	// latency histograms keyed by component/metric name.
	Metrics bool
	// Trace enables the typed event ring buffer (power cuts/restores,
	// rebuild state transitions, txn lifecycle, queue-depth samples,
	// block-IO spans).
	Trace bool
	// TraceCap bounds how many events the ring retains; 0 means
	// DefaultTraceCap. Storage grows by chunk up to the cap, so a large
	// cap costs nothing until the events arrive.
	TraceCap int
}

// Enabled reports whether any feature is on. Nil-safe.
func (c *Config) Enabled() bool { return c != nil && (c.Metrics || c.Trace) }

// Set is one run's observability state: a registry and a trace ring,
// either of which may be nil depending on Config. A nil *Set is the
// disabled state and is safe to use everywhere.
type Set struct {
	reg *Registry
	tr  *Trace
}

// NewSet builds a Set for cfg, or nil when cfg enables nothing.
func NewSet(cfg Config) *Set {
	if !cfg.Enabled() {
		return nil
	}
	s := &Set{}
	if cfg.Metrics {
		s.reg = NewRegistry()
	}
	if cfg.Trace {
		s.tr = NewTrace(cfg.TraceCap)
	}
	return s
}

// Scope returns a handle-factory bound to one component name. Nil-safe:
// a nil Set yields a zero Scope whose handles are all nil.
func (s *Set) Scope(component string) Scope {
	if s == nil {
		return Scope{}
	}
	return s.scope(component)
}

// scope binds component, interning it in the trace once.
func (s *Set) scope(component string) Scope {
	sc := Scope{set: s, comp: component}
	if s.tr != nil {
		sc.cid = s.tr.compID(component)
	}
	return sc
}

// Registry returns the metrics registry, or nil when metrics are off.
func (s *Set) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Trace returns the event ring, or nil when tracing is off.
func (s *Set) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// Summary snapshots the registry (sorted, deterministic) together with
// trace accounting. Nil-safe; returns nil when the Set is nil.
func (s *Set) Summary() *Summary {
	if s == nil {
		return nil
	}
	sum := &Summary{}
	if s.reg != nil {
		s.reg.fill(sum)
	}
	if s.tr != nil {
		sum.TraceEvents = s.tr.Len()
		sum.TraceDropped = s.tr.Dropped()
	}
	return sum
}

// Scope is a Set bound to one component name; metric names it hands out
// are "component/metric". The zero Scope is disabled: it returns nil
// handles, ignores registered counts and drops events.
type Scope struct {
	set  *Set
	comp string
	cid  uint16 // comp's index in the trace's component table
}

// Enabled reports whether the scope is bound to a live Set.
func (sc Scope) Enabled() bool { return sc.set != nil }

// TracingOn reports whether trace events recorded through this scope are
// kept. Guard expensive event construction (fmt.Sprintf state names)
// behind this.
func (sc Scope) TracingOn() bool { return sc.set != nil && sc.set.tr != nil }

// Sub returns a child scope named "component/name".
func (sc Scope) Sub(name string) Scope {
	if sc.set == nil {
		return Scope{}
	}
	return sc.set.scope(sc.comp + "/" + name)
}

// Count registers the count at n as a source of the counter
// "component/name": the layer keeps and increments the count, and the
// registry reads it when it snapshots. A no-op when metrics are off.
func (sc Scope) Count(name string, n *int64) {
	if sc.set == nil || sc.set.reg == nil {
		return
	}
	sc.set.reg.Count(sc.comp+"/"+name, n)
}

// Gauge returns the named gauge, or nil when metrics are off.
func (sc Scope) Gauge(name string) *Gauge {
	if sc.set == nil || sc.set.reg == nil {
		return nil
	}
	return sc.set.reg.Gauge(sc.comp + "/" + name)
}

// Histogram returns the named histogram, or nil when metrics are off.
func (sc Scope) Histogram(name string) *Histogram {
	if sc.set == nil || sc.set.reg == nil {
		return nil
	}
	return sc.set.reg.Histogram(sc.comp + "/" + name)
}

// Marker returns a handle recording events of kind named name from this
// scope, with the name resolved once; the zero Marker when tracing is
// off.
func (sc Scope) Marker(kind Kind, name string) Marker {
	if !sc.TracingOn() {
		return Marker{}
	}
	tr := sc.set.tr
	return Marker{tr: tr, kind: kind, comp: sc.cid, name: tr.nameID(name)}
}

// Instant records a zero-duration event at sim time at. The name is
// looked up per call; a hot path records through a Marker.
func (sc Scope) Instant(at sim.Time, kind Kind, name string, value int64) {
	sc.Marker(kind, name).Instant(at, value)
}

// Span records an event covering [at, at+dur).
func (sc Scope) Span(at sim.Time, dur sim.Duration, kind Kind, name string, value int64) {
	sc.Marker(kind, name).Span(at, dur, value)
}
