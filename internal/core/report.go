package core

import (
	"fmt"
	"strings"

	"powerfail/internal/array"
	"powerfail/internal/blockdev"
	"powerfail/internal/fleet"
	"powerfail/internal/hdd"
	"powerfail/internal/obs"
	"powerfail/internal/sim"
	"powerfail/internal/ssd"
	"powerfail/internal/trace"
	"powerfail/internal/txn"
)

// Report is the outcome of one experiment: the failure counts the paper's
// figures plot, plus enough supporting detail to debug a run. Reports
// marshal to JSON (simulated times are nanosecond integers) so sweeps can
// be post-processed by scripts.
type Report struct {
	Name    string `json:"name"`
	Profile string `json:"profile"`
	// Source records which IO source drove the experiment ("workload",
	// "txn", "trace").
	Source string         `json:"io_source"`
	Spec   ExperimentSpec `json:"spec"`

	SimDuration sim.Duration `json:"sim_ns"`
	// ActiveTime is powered-on workload time (excludes fault cycles);
	// responded IOPS is measured against it.
	ActiveTime sim.Duration `json:"active_ns"`

	Requests  int `json:"requests"`
	Reads     int `json:"reads"`
	Writes    int `json:"writes"`
	Completed int `json:"completed"`
	Errored   int `json:"errored"`
	NotIssued int `json:"not_issued"`

	Faults int `json:"faults"`
	// Cuts and Restores count the scheduler's commands to the Arduino
	// (Cuts can exceed Faults when an experiment is cancelled mid-cycle).
	Cuts     int            `json:"cuts"`
	Restores int            `json:"restores"`
	Counters Counters       `json:"counters"`
	PerFault []FaultOutcome `json:"per_fault,omitempty"`

	DataLossPerFault float64 `json:"data_loss_per_fault"`
	RequestedIOPS    float64 `json:"requested_iops,omitempty"`
	RespondedIOPS    float64 `json:"responded_iops"`

	// DeviceStats is set on the single-SSD topology (nil otherwise, so
	// JSON consumers cannot mistake an absent SSD for an idle one).
	DeviceStats *ssd.Stats     `json:"device_stats,omitempty"`
	HostStats   blockdev.Stats `json:"host_stats"`

	// HDDStats is set on the single-HDD topology.
	HDDStats *hdd.Stats `json:"hdd_stats,omitempty"`
	// ArrayStats and Members are set on the array topology: array-level
	// counters plus the per-member service counters, device health and
	// attributed failures.
	ArrayStats *array.Stats   `json:"array_stats,omitempty"`
	Members    []MemberReport `json:"members,omitempty"`

	// TxnStats is set when the transactional application layer ran: the
	// oracle's per-class verdict counts (intact / lost-commit / torn /
	// out-of-order), the oldest lost commit sequence, and the recovery
	// scan lengths, under the engine's primary recovery policy.
	// TxnPolicies is the recovery-policy ablation — the same faults
	// judged under every policy on identical observations, indexed by
	// txn.RecoveryPolicy (hole-tolerant, strict-scan). TxnPerFault is the
	// per-fault-cycle breakdown, index-aligned with PerFault, each cycle
	// carrying all policies' verdicts.
	TxnStats    *txn.Stats         `json:"txn_stats,omitempty"`
	TxnPolicies []txn.Stats        `json:"txn_policies,omitempty"`
	TxnPerFault []txn.CycleOutcome `json:"txn_per_fault,omitempty"`

	// TraceStats is set when a trace replay drove the experiment: rows
	// replayed, laps over the trace, coverage, and how many addresses had
	// to be scaled/clamped into the device.
	TraceStats *trace.Stats `json:"trace_stats,omitempty"`

	// Fleet is set when the datacenter fleet layer ran instead of the
	// single-device platform: per-domain-level cut counts, rebuild windows
	// and bytes moved, and availability/durability nines from the simulated
	// up/degraded/down intervals.
	Fleet *fleet.Stats `json:"fleet_stats,omitempty"`

	// Events is the number of simulator events the kernel processed. It is
	// always recorded but excluded from JSON so that reports stay
	// byte-identical whether or not telemetry consumers read it.
	Events uint64 `json:"-"`

	// Obs is the observability summary (metrics registry snapshot plus
	// trace-ring accounting). It is nil unless the experiment ran with
	// Options.Obs enabled, so default reports are byte-identical to
	// pre-observability ones.
	Obs *obs.Summary `json:"obs,omitempty"`

	// ObsTrace is the obs ring that captured the structured event trace,
	// nil unless tracing was enabled; its Events method builds the events
	// oldest-first when a caller asks. It is exported separately (Chrome
	// trace JSON), never in the report JSON.
	ObsTrace *obs.Trace `json:"-"`
}

// MemberReport is one array member's view of the experiment: how much it
// served, how its power cycle went, and which failures the analyzer
// attributed to it. A failure is charged to each member that held a page
// of the packet's range: on a striped level the data member of each
// touched chunk, never a parity member; on RAID-1 every mirror, so mirror
// failures are charged collectively.
type MemberReport struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	Role  string `json:"role"`

	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	Errors int64 `json:"errors"`

	Deaths         int64 `json:"deaths"`
	Recoveries     int64 `json:"recoveries"`
	DirtyPagesLost int64 `json:"dirty_pages_lost"`

	Failures
}

// DataFailures returns the strict data-failure count (excludes FWA).
func (r *Report) DataFailures() int { return r.Counters.DataFailures }

// FWA returns the false-write-acknowledge count.
func (r *Report) FWA() int { return r.Counters.FWA }

// IOErrors returns the IO error count.
func (r *Report) IOErrors() int { return r.Counters.IOErrors }

// DataLosses returns data failures plus FWAs.
func (r *Report) DataLosses() int { return r.Counters.DataLosses() }

// TxnPolicy returns the recovery-policy ablation row for p (zero Stats
// when the transactional layer did not run).
func (r *Report) TxnPolicy(p txn.RecoveryPolicy) txn.Stats {
	if int(p) < len(r.TxnPolicies) {
		return r.TxnPolicies[p]
	}
	return txn.Stats{}
}

// TxnUnreachable returns the durable-but-unreachable commits: losses the
// strict scan adds over hole-tolerant replay on the same observations
// (0 when the transactional layer did not run). Never negative.
func (r *Report) TxnUnreachable() int64 {
	return r.TxnPolicy(txn.StrictScan).Losses() - r.TxnPolicy(txn.HoleTolerant).Losses()
}

// String renders a readable multi-line summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "experiment %q on SSD %s\n", r.Name, r.Profile)
	fmt.Fprintf(&b, "  workload: %s\n", r.Spec.Workload)
	fmt.Fprintf(&b, "  sim time: %s (active %s)\n", r.SimDuration, r.ActiveTime)
	fmt.Fprintf(&b, "  requests: %d (%d reads, %d writes; %d completed, %d errored, %d not issued)\n",
		r.Requests, r.Reads, r.Writes, r.Completed, r.Errored, r.NotIssued)
	fmt.Fprintf(&b, "  faults:   %d injected (%d cuts, %d restores)\n", r.Faults, r.Cuts, r.Restores)
	fmt.Fprintf(&b, "  failures: %d data failures, %d FWA, %d IO errors (%d late corruptions)\n",
		r.Counters.DataFailures, r.Counters.FWA, r.Counters.IOErrors, r.Counters.LateCorruptions)
	fmt.Fprintf(&b, "  data loss per fault: %.2f\n", r.DataLossPerFault)
	if s := r.ArrayStats; s != nil {
		fmt.Fprintf(&b, "  array:    rmw=%d holes=%d reconstructions=%d redirects=%d hits=%d misses=%d destages=%d dropped=%d\n",
			s.ParityRMWs, s.WriteHoles, s.Reconstructions, s.RedirectedReads,
			s.CacheHits, s.CacheMisses, s.Destages, s.LinesDropped)
	}
	for _, m := range r.Members {
		fmt.Fprintf(&b, "  member %d (%s, %s): reads=%d writes=%d errors=%d deaths=%d dirty-lost=%d | data=%d fwa=%d ioerr=%d\n",
			m.Index, m.Name, m.Role, m.Reads, m.Writes, m.Errors, m.Deaths, m.DirtyPagesLost,
			m.DataFailures, m.FWA, m.IOErrors)
	}
	if s := r.TraceStats; s != nil {
		fmt.Fprintf(&b, "  trace:    %d rows, replayed %d (%d laps, %.0f%% coverage, %d scaled/clamped)\n",
			s.Records, s.Replayed, s.Laps, 100*s.Coverage, s.Clamped)
	}
	if s := r.Fleet; s != nil {
		fmt.Fprintf(&b, "  fleet:    %d arrays x%d (+%d spares), %d members, %d events\n",
			s.Arrays, s.GroupSize, s.Spares, s.Members, s.Events)
		fmt.Fprintf(&b, "  domains:  cuts by level %v, %d declared failures, %d transient recoveries\n",
			s.CutsByLevel, s.DeclaredFailures, s.TransientRecoveries)
		fmt.Fprintf(&b, "  rebuilds: %d windows (%d completed, max %d concurrent), %s exposed, %.1f MiB read / %.1f MiB written, %d spare takes, %d shortages\n",
			s.RebuildWindows, s.RebuildCompleted, s.MaxConcurrentRebuilds, s.RebuildTime,
			float64(s.RebuildReadBytes)/(1<<20), float64(s.RebuildWriteBytes)/(1<<20),
			s.SpareTakes, s.SpareShortages)
		fmt.Fprintf(&b, "  nines:    availability %.6f (%.2f nines; up %s, degraded %s, down %s), durability %.9f (%.2f nines, %d loss events, %d bytes lost)\n",
			s.Availability, s.AvailabilityNines, s.UpTime, s.DegradedTime, s.DownTime,
			s.Durability, s.DurabilityNines, s.LossEvents, s.BytesLost)
	}
	if s := r.TxnStats; s != nil {
		fmt.Fprintf(&b, "  %s\n", s)
		if s.RecoveryScans > 0 {
			fmt.Fprintf(&b, "  txn recovery: %d scans, %.0f log pages/scan; %d checkpoints, %d flushes\n",
				s.RecoveryScans, float64(s.ScanPages)/float64(s.RecoveryScans), s.Checkpoints, s.Flushes)
		}
		if len(r.TxnPolicies) > 0 {
			fmt.Fprintf(&b, "  txn ablation:")
			for _, ps := range r.TxnPolicies {
				fmt.Fprintf(&b, " %s=%d-lost/%d-torn/%d-ooo", ps.Policy, ps.LostCommits, ps.Torn, ps.OutOfOrder)
			}
			fmt.Fprintf(&b, " (%d durable-but-unreachable)\n", r.TxnUnreachable())
		}
	}
	if r.RequestedIOPS > 0 {
		fmt.Fprintf(&b, "  iops: requested %.0f responded %.0f\n", r.RequestedIOPS, r.RespondedIOPS)
	} else {
		fmt.Fprintf(&b, "  iops: responded %.0f\n", r.RespondedIOPS)
	}
	if s := r.Obs; s != nil {
		fmt.Fprintf(&b, "  obs:      %d counters, %d gauges, %d histograms; %d trace events (%d dropped)\n",
			len(s.Counters), len(s.Gauges), len(s.Histograms), s.TraceEvents, s.TraceDropped)
	}
	return b.String()
}
