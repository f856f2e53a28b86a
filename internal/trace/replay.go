package trace

import (
	"encoding/json"
	"fmt"
	"math/bits"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/sim"
)

// Mode selects how a Replayer paces the trace's arrivals.
type Mode int

// Replay modes.
const (
	// ClosedLoop replays as fast as possible: the runner's closed loop
	// pulls the next record whenever an outstanding slot frees up.
	ClosedLoop Mode = iota
	// OpenLoop replays with the original inter-arrival times (scaled by
	// Config.TimeScale), so the device sees the trace's own burstiness.
	OpenLoop
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == OpenLoop {
		return "open"
	}
	return "closed"
}

// MarshalJSON renders the mode by name.
func (m Mode) MarshalJSON() ([]byte, error) { return []byte(`"` + m.String() + `"`), nil }

// UnmarshalJSON parses a mode name.
func (m *Mode) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"closed"`:
		*m = ClosedLoop
	case `"open"`:
		*m = OpenLoop
	default:
		return fmt.Errorf("trace: unknown replay mode %s", b)
	}
	return nil
}

// Config selects a parsed trace and its replay pacing.
type Config struct {
	// Trace is the parsed trace to replay (required).
	Trace *Trace
	// Mode is the pacing policy (closed loop by default).
	Mode Mode
	// TimeScale multiplies open-loop inter-arrival gaps (default 1;
	// 0.5 replays twice as fast). Ignored in closed loop.
	TimeScale float64
}

func (c Config) withDefaults() Config {
	if c.TimeScale == 0 {
		c.TimeScale = 1
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Trace == nil || len(c.Trace.Records) == 0 {
		return fmt.Errorf("trace: no trace to replay")
	}
	if c.Mode < ClosedLoop || c.Mode > OpenLoop {
		return fmt.Errorf("trace: unknown mode %d", int(c.Mode))
	}
	if c.TimeScale < 0 {
		return fmt.Errorf("trace: negative TimeScale %g", c.TimeScale)
	}
	if c.Mode == OpenLoop {
		// Arrivals closer than the 1 ns clock tick land on one instant,
		// so the clock would all but stop. The mean gap is the length of
		// one lap of NewReplayer's schedule over the records in it.
		period := c.Trace.Duration() + c.Trace.lapGap()
		gap := float64(period) / float64(len(c.Trace.Records)) * c.withDefaults().TimeScale
		if !(gap >= 1) {
			return fmt.Errorf("trace: TimeScale %g puts the mean open-loop arrival gap (%.3g ns) under the 1 ns clock tick", c.TimeScale, gap)
		}
	}
	return nil
}

// MarshalJSON summarizes the config: name, row count and pacing. The
// records themselves never enter a report — a trace can hold millions of
// rows and reports must stay small and byte-deterministic.
func (c Config) MarshalJSON() ([]byte, error) {
	name, n := "", 0
	if c.Trace != nil {
		name, n = c.Trace.Name, len(c.Trace.Records)
	}
	return json.Marshal(struct {
		Name      string  `json:"name"`
		Records   int     `json:"records"`
		Mode      Mode    `json:"mode"`
		TimeScale float64 `json:"time_scale,omitempty"`
	}{name, n, c.Mode, c.TimeScale})
}

// UnmarshalJSON decodes the compact summary MarshalJSON writes. Only the
// pacing fields are restored — the trace records themselves are never in
// JSON — so a decoded Config describes a replay but cannot re-run one
// (Trace stays nil; Validate rejects it).
func (c *Config) UnmarshalJSON(b []byte) error {
	var s struct {
		Mode      Mode    `json:"mode"`
		TimeScale float64 `json:"time_scale"`
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	c.Trace = nil
	c.Mode = s.Mode
	c.TimeScale = s.TimeScale
	return nil
}

// Stats describes one replay run.
type Stats struct {
	// Records is the number of rows in the trace; Replayed counts IOs
	// issued (laps multiply it); Laps counts completed passes.
	Records  int   `json:"records"`
	Replayed int64 `json:"replayed"`
	Laps     int64 `json:"laps"`
	// Coverage is the fraction of trace rows issued at least once.
	Coverage float64 `json:"coverage"`
	// Clamped counts IOs whose address was scaled or clamped into the
	// device's address space.
	Clamped int64 `json:"clamped"`
	Reads   int64 `json:"reads"`
	Writes  int64 `json:"writes"`
}

// IO is one replayed request, addressed within the device under test.
type IO struct {
	Op    Op
	LPN   addr.LPN
	Pages int
	Data  content.Data // fresh random payload for writes
}

// Replayer walks a trace and emits device-sized IOs. The trace loops when
// exhausted, so a closed loop over Next never stalls; Stats records laps
// and coverage so a report shows how much of the trace a run actually
// exercised. Replay is deterministic: the same (Config, devPages, RNG
// fork) reproduces the same IO stream.
type Replayer struct {
	cfg      Config
	rng      *sim.RNG
	devPages int64
	extent   int64        // trace address extent in pages
	period   sim.Duration // one lap's schedule length (open loop)

	pos     int          // next record to issue
	lap     int64        // completed passes
	armed   int64        // absolute index of the record armed by the last arrival
	prevArm sim.Duration // scheduled (scaled) time of that arrival
	idleGap sim.Duration // pause cadence: the trace's scaled mean gap
	stats   Stats
}

// NewReplayer builds a replayer over a device of devPages host-visible
// pages. The RNG must be a dedicated fork; the replayer consumes it for
// write payload content.
func NewReplayer(cfg Config, devPages int64, rng *sim.RNG) (*Replayer, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if devPages < 1 {
		return nil, fmt.Errorf("trace: device has no pages")
	}
	r := &Replayer{cfg: cfg, rng: rng, devPages: devPages, extent: cfg.Trace.Extent(), armed: -1}
	r.stats.Records = len(cfg.Trace.Records)
	gap := cfg.Trace.lapGap()
	r.period = cfg.Trace.Duration() + gap
	r.idleGap = sim.Duration(float64(gap) * cfg.TimeScale)
	if r.idleGap < sim.Microsecond {
		r.idleGap = sim.Microsecond
	}
	return r, nil
}

// Config returns the effective (defaulted) configuration.
func (r *Replayer) Config() Config { return r.cfg }

// OpenLoop reports whether the replayer paces its own arrivals.
func (r *Replayer) OpenLoop() bool { return r.cfg.Mode == OpenLoop }

// Next returns the next replayed IO, wrapping to the start of the trace
// when it runs out.
func (r *Replayer) Next() IO {
	rec := r.cfg.Trace.Records[r.pos]
	r.pos++
	if r.pos == len(r.cfg.Trace.Records) {
		r.pos = 0
		r.lap++
	}
	lpn, pages, clamped := r.place(rec)
	io := IO{Op: rec.Op, LPN: lpn, Pages: pages}
	if rec.Op == OpWrite {
		io.Data = content.Random(r.rng, pages)
		r.stats.Writes++
	} else {
		r.stats.Reads++
	}
	if clamped {
		r.stats.Clamped++
	}
	r.stats.Replayed++
	return io
}

// place fits the record's address into the device's space: a trace wider
// than the device is linearly compressed (preserving relative locality),
// and any residual overhang is clamped to the top of the address space.
func (r *Replayer) place(rec Record) (addr.LPN, int, bool) {
	pages := rec.Pages
	clamped := false
	if int64(pages) > r.devPages {
		pages = int(r.devPages)
		clamped = true
	}
	lpn := int64(rec.LPN)
	if r.extent > r.devPages {
		// 128-bit multiply: lpn can reach 2^38 (the 1 PiB parser bound)
		// and lpn*devPages would overflow int64 on large devices. hi is
		// always below the divisor (lpn < extent and devPages < 2^63), so
		// Div64 cannot panic.
		hi, lo := bits.Mul64(uint64(lpn), uint64(r.devPages))
		q, _ := bits.Div64(hi, lo, uint64(r.extent))
		lpn = int64(q)
		clamped = true
	}
	if lpn+int64(pages) > r.devPages {
		lpn = r.devPages - int64(pages)
		clamped = true
	}
	return addr.LPN(lpn), pages, clamped
}

// NextArrival returns the delay before the next open-loop arrival: the
// next record's own inter-arrival gap, scaled by TimeScale, with wrapped
// laps continuing the schedule at the trace's cadence. The schedule is
// pegged to the record cursor, so a runner pause (a fault cycle's
// verification and recovery, when arrivals are drawn but nothing issues) never
// consumes record gaps — the replayer idles at the trace's mean cadence
// and each record keeps its original arrival spacing when issuing
// resumes. Closed loop returns 0.
func (r *Replayer) NextArrival() sim.Duration {
	if r.cfg.Mode != OpenLoop {
		return 0
	}
	n := int64(len(r.cfg.Trace.Records))
	idx := r.lap*n + int64(r.pos) // absolute index of the next record to issue
	if idx == r.armed {
		return r.idleGap // armed but not issued: the runner is paused
	}
	r.armed = idx
	at := sim.Duration(float64(sim.Duration(idx/n)*r.period+r.cfg.Trace.Records[idx%n].At) * r.cfg.TimeScale)
	gap := at - r.prevArm
	r.prevArm = at
	if gap < 0 {
		gap = 0
	}
	return gap
}

// Stats returns a snapshot of the replay counters.
func (r *Replayer) Stats() Stats {
	s := r.stats
	s.Laps = r.lap
	distinct := s.Replayed
	if distinct > int64(s.Records) {
		distinct = int64(s.Records)
	}
	if s.Records > 0 {
		s.Coverage = float64(distinct) / float64(s.Records)
	}
	return s
}
