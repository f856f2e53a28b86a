// Package powerfail is a simulation-backed reproduction of "Investigating
// Power Outage Effects on Reliability of Solid-State Drives" (Ahmadian et
// al., DATE 2018): a power-fault injection and failure detection platform
// for SSDs.
//
// The top-level entry point is the Campaign: a set of catalog items (the
// paper's evaluation is a matrix of hundreds of independent experiments
// per figure) executed over a bounded worker pool with streaming progress,
// context cancellation, deterministic ordering, per-figure aggregation
// (failure-rate means with 95% confidence intervals) and JSON output:
//
//	out, err := powerfail.NewCampaign(powerfail.Fig5Items(0.2),
//	    powerfail.WithParallelism(8),
//	    powerfail.WithBaseSeed(1),
//	).Run(ctx)
//
// Each experiment builds an independent single-threaded Platform, so the
// same (BaseSeed, items) pair reproduces byte-identical reports at any
// parallelism. Single experiments run through Run/RunContext:
//
//	rep, err := powerfail.Run(powerfail.Options{Seed: 1},
//	    powerfail.Experiment{
//	        Name:             "demo",
//	        Workload:         powerfail.DefaultWorkload(),
//	        Faults:           50,
//	        RequestsPerFault: 16,
//	    })
//
// The device side of the platform is selected by Options.Topology: the
// single SSD of the paper (the default), a single HDD comparator, or a
// multi-device array — RAID-0/1/5/6 or general m+k Reed-Solomon over
// SSDs, or an SSD cache fronting an HDD in write-back or write-through
// policy. Every member of an array hangs off the platform's one simulated
// PSU, exactly like the drives in the paper's rig share one
// Arduino-switched ATX supply, so a power cut is correlated across the
// whole array: parity write holes, mirror divergence and lost dirty cache
// lines emerge from the per-device models composing, not from scripted
// outcomes. Array members need not be identical — a heterogeneous mix
// (say TLC drives with one large-cache QLC straggler) can be compared
// drive by drive, because each lost page is charged to the member that
// held it.
//
// Traffic comes from one of three IO sources behind a single pluggable
// interface: the paper's synthetic workload generator (the default), the
// transactional WAL application layer (Options.App), or an MSR-style
// block-trace replayer (Experiment.Trace, via ParseTrace/ParseTraceFile
// or the bundled fixtures) replaying real traces open- or closed-loop
// through the identical fault pipeline.
//
// The paper's hardware — an Arduino-controlled ATX supply whose slow
// capacitive discharge the drive under test experiences — and the drives
// themselves are modelled in detail (see DESIGN.md); the software part of
// the platform (fault scheduler, IO generator with checksummed data
// packets, an analyzer applying the paper's btt "completed" rule, and the
// data-failure / FWA / IO-error taxonomy) is implemented as published.
//
// Above the single-rig platform sits the fleet layer (Options.Fleet): a
// fault-domain tree of rooms, racks, enclosures and PSUs carrying hundreds
// of redundancy groups with standby spares and per-member rebuild state
// machines, where a cut targets any tree node and propagates to every
// drive beneath it. Rebuild traffic flows through each member's ordinary
// block layer, and reports gain availability/durability "nines" computed
// from the simulated up/degraded/down intervals. The tree owns the
// per-level cut counts; the single rig does not use it, since its fault
// scheduler drives the Arduino directly.
//
// The Experiments catalog reproduces every figure of the paper's
// evaluation, plus the "array", "erasure", "cache" and "fleet" figures
// over the composite and fleet topologies; cmd/sweep drives it from the command
// line (-parallel fans out, -json emits the machine-readable
// CampaignResult).
package powerfail

import (
	"context"
	"io"

	"powerfail/internal/array"
	"powerfail/internal/blockdev"
	"powerfail/internal/core"
	"powerfail/internal/flash"
	"powerfail/internal/fleet"
	"powerfail/internal/hdd"
	"powerfail/internal/obs"
	"powerfail/internal/power"
	"powerfail/internal/sim"
	"powerfail/internal/ssd"
	"powerfail/internal/trace"
	"powerfail/internal/txn"
	"powerfail/internal/workload"
)

// Re-exported types: the public API fronts the internal packages so that
// downstream users never import powerfail/internal/... directly.
type (
	// Options configures the platform (seed, drive profile, host block
	// layer, PSU electrical model, closed-loop concurrency).
	Options = core.Options
	// Experiment describes one fault-injection experiment.
	Experiment = core.ExperimentSpec
	// Report is the outcome of an experiment.
	Report = core.Report
	// Platform is a fully wired test platform instance.
	Platform = core.Platform
	// Runner executes one experiment on a platform.
	Runner = core.Runner
	// FailureKind classifies a request after verification.
	FailureKind = core.FailureKind
	// FaultOutcome is the per-fault failure breakdown.
	FaultOutcome = core.FaultOutcome

	// Workload describes an IO stream (sizes, mix, pattern, sequences).
	Workload = workload.Spec
	// SeqMode selects RAR/RAW/WAR/WAW paired accesses.
	SeqMode = workload.SeqMode
	// Pattern selects random or sequential addressing.
	Pattern = workload.Pattern

	// SSDProfile describes a drive model (Table I row).
	SSDProfile = ssd.Profile
	// HDDProfile describes a hard disk comparator drive.
	HDDProfile = hdd.Profile
	// PSUConfig is the supply's electrical model.
	PSUConfig = power.Config
	// HostConfig is the block-layer configuration.
	HostConfig = blockdev.Config
	// CellKind is the flash cell technology (SLC/MLC/TLC/QLC).
	CellKind = flash.CellKind

	// Topology selects the device side of the platform: single SSD
	// (default), single HDD, or a multi-device array whose members all
	// share the one simulated PSU.
	Topology = core.Topology
	// TopologyKind enumerates the topologies.
	TopologyKind = core.TopologyKind
	// ArrayConfig describes a composite device (RAID-0/1/5/6 or
	// Reed-Solomon members, stripe size and parity count, or the
	// SSD-cache-over-HDD pair and its policy).
	ArrayConfig = array.Config
	// ArrayLevel selects striping, mirroring, parity, or caching.
	ArrayLevel = array.Level
	// CachePolicy selects write-back or write-through for Cached arrays.
	CachePolicy = array.CachePolicy
	// ArrayStats are the array-level counters of a Report.
	ArrayStats = array.Stats
	// MemberReport is one array member's slice of a Report.
	MemberReport = core.MemberReport

	// AppConfig selects an optional application layer above the block
	// device; the zero value runs the paper's plain IO generator.
	AppConfig = core.AppConfig
	// TxnConfig tunes the write-ahead-log transaction engine (stream
	// count, pages per transaction, commit barrier, group size,
	// checkpoint cadence, log region size, primary recovery policy).
	TxnConfig = txn.Config
	// TxnBarrier selects the engine's commit durability policy.
	TxnBarrier = txn.Barrier
	// TxnRecoveryPolicy selects how a recovery scan treats torn log
	// slots; the oracle always judges every fault under all policies
	// (Report.TxnPolicies), the config picks the headline one.
	TxnRecoveryPolicy = txn.RecoveryPolicy
	// TxnStats carries the crash-consistency oracle's verdict counts in a
	// Report (intact / lost-commit / torn / out-of-order, oldest lost
	// sequence, recovery scan lengths) under one recovery policy.
	TxnStats = txn.Stats
	// TxnCycleVerdicts is one policy's per-fault verdict counts.
	TxnCycleVerdicts = txn.CycleVerdicts
	// TxnCycleOutcome is the oracle's per-fault breakdown across every
	// recovery policy (Report.TxnPerFault, index-aligned with
	// Report.PerFault).
	TxnCycleOutcome = txn.CycleOutcome

	// SourceKind selects the runner's IO source (synthetic workload,
	// transaction engine, or trace replay); the zero value infers it from
	// the rest of the configuration.
	SourceKind = core.SourceKind
	// TraceWorkload is a parsed block trace (see ParseTrace/ParseTraceFile
	// and BundledTrace).
	TraceWorkload = trace.Trace
	// TraceConfig selects a parsed trace and its replay pacing; assign a
	// pointer to Experiment.Trace.
	TraceConfig = trace.Config
	// TraceMode selects open-loop (original arrival times) or closed-loop
	// (as fast as possible) replay.
	TraceMode = trace.Mode
	// TraceStats carries replay coverage in a Report (rows replayed, laps,
	// coverage, scaled/clamped addresses).
	TraceStats = trace.Stats

	// FleetConfig describes a datacenter-scale fleet experiment: the
	// fault-domain tree (room → rack → enclosure → PSU), the population of
	// m+k redundancy groups (Parity bays each; default 1, RAID-5-like)
	// with standby spares, the rebuild policy, the fault plan over the
	// tree and the foreground workload. Assign a pointer to Options.Fleet
	// to run the fleet path instead of the single-device platform.
	FleetConfig = fleet.Config
	// FleetDomains sizes the fault-domain tree.
	FleetDomains = fleet.DomainConfig
	// FleetLevel is a fault-domain tier (room, rack, enclosure, PSU).
	FleetLevel = fleet.Level
	// FleetCutEvent is one scripted fault against a tree node.
	FleetCutEvent = fleet.CutEvent
	// FleetFaultPlan selects scripted or random cut targeting over the tree.
	FleetFaultPlan = fleet.FaultPlan
	// FleetRebuildPolicy tunes grace windows, rebuild chunking, backup
	// bandwidth and the controller cadence.
	FleetRebuildPolicy = fleet.RebuildPolicy
	// FleetWorkload shapes the per-group foreground traffic.
	FleetWorkload = fleet.WorkloadConfig
	// FleetMemberProfile is the lightweight member-drive service model.
	FleetMemberProfile = fleet.MemberProfile
	// FleetStats carries the fleet outcome in a Report: per-level cut
	// counts, rebuild windows and bytes moved, and availability/durability
	// nines from the simulated up/degraded/down intervals.
	FleetStats = fleet.Stats

	// ObsConfig enables the observability layer — a sim-time metrics
	// registry and/or a structured trace-event ring; assign a pointer to
	// Options.Obs. The nil default disables both and keeps reports
	// byte-identical to pre-observability runs.
	ObsConfig = obs.Config
	// ObsSummary is the metrics-registry snapshot a Report carries in its
	// optional "obs" section when enabled: sorted counter, gauge and
	// histogram snapshots plus trace-ring accounting.
	ObsSummary = obs.Summary
	// ObsEvent is one structured trace event (Report.ObsTrace.Events).
	ObsEvent = obs.Event
	// ObsTrace is the bounded event ring a traced Report carries
	// (Report.ObsTrace); Events returns its events oldest-first.
	ObsTrace = obs.Trace
	// ObsKind classifies structured trace events (power transitions,
	// rebuild state changes, transactions, recovery scans, queue depth,
	// block IO spans).
	ObsKind = obs.Kind
	// ObsProcess groups one experiment's events for Chrome trace export
	// (one "process" track per experiment in the Perfetto UI).
	ObsProcess = obs.Process

	// Duration and Time are simulated-clock units.
	Duration = sim.Duration
	Time     = sim.Time
)

// Failure kinds (Section III-B taxonomy).
const (
	FailNone    = core.FailNone
	FailData    = core.FailData
	FailFWA     = core.FailFWA
	FailIOError = core.FailIOError
)

// Access patterns and sequence modes.
const (
	RandomPattern     = workload.Random
	SequentialPattern = workload.Sequential
	SeqNone           = workload.SeqNone
	RAR               = workload.RAR
	RAW               = workload.RAW
	WAR               = workload.WAR
	WAW               = workload.WAW
)

// Cell technologies.
const (
	SLC = flash.SLC
	MLC = flash.MLC
	TLC = flash.TLC
	QLC = flash.QLC
)

// Device topologies.
const (
	TopoSSD   = core.TopoSSD
	TopoHDD   = core.TopoHDD
	TopoArray = core.TopoArray
)

// Array levels and cache policies. RAID6 rotates two parities (P+Q over
// GF(256)); RS is the general Reed-Solomon level whose parity count
// ArrayConfig.Parity picks.
const (
	RAID0  = array.RAID0
	RAID1  = array.RAID1
	RAID5  = array.RAID5
	Cached = array.Cached
	RAID6  = array.RAID6
	RS     = array.RS

	WriteBack    = array.WriteBack
	WriteThrough = array.WriteThrough
)

// Commit barrier policies for the transactional application layer.
const (
	// FlushPerCommit acknowledges a commit only after an OpFlush landed.
	FlushPerCommit = txn.FlushPerCommit
	// GroupCommitBarrier flushes once per TxnConfig.GroupEvery commits
	// (the batch fills across WAL streams).
	GroupCommitBarrier = txn.GroupCommit
	// NoFlushBarrier acknowledges on the device write ACK — exposing
	// volatile-cache lies at transaction granularity.
	NoFlushBarrier = txn.NoFlush
)

// Recovery-scan policies for the transactional application layer
// (TxnConfig.Policy selects the primary; Report.TxnPolicies carries the
// ablation under both).
const (
	// HoleTolerantRecovery replays every durable record, holes included:
	// the best any recovery implementation could do.
	HoleTolerantRecovery = txn.HoleTolerant
	// StrictScanRecovery stops each stream's scan at the first torn slot;
	// durable records behind the tear are unreachable.
	StrictScanRecovery = txn.StrictScan
)

// IO source kinds (Experiment.Source; SourceAuto infers from the rest of
// the configuration).
const (
	SourceAuto     = core.SourceAuto
	SourceWorkload = core.SourceWorkload
	SourceTxn      = core.SourceTxn
	SourceTrace    = core.SourceTrace
)

// Trace replay modes.
const (
	// TraceClosedLoop replays as fast as possible.
	TraceClosedLoop = trace.ClosedLoop
	// TraceOpenLoop replays with the original inter-arrival times.
	TraceOpenLoop = trace.OpenLoop
)

// Fault-domain tiers, widest blast radius first.
const (
	FleetRoom      = fleet.Room
	FleetRack      = fleet.Rack
	FleetEnclosure = fleet.Enclosure
	FleetPSU       = fleet.PSU
)

// Simulated time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewPlatform builds a wired platform (hardware part + device under test +
// host block layer) without running anything.
func NewPlatform(opts Options) (*Platform, error) { return core.NewPlatform(opts) }

// NewRunner prepares an experiment on a platform.
func NewRunner(p *Platform, spec Experiment) (*Runner, error) { return core.NewRunner(p, spec) }

// Run builds a platform and executes one experiment to completion.
func Run(opts Options, spec Experiment) (*Report, error) {
	return core.RunExperiment(context.Background(), opts, spec)
}

// RunContext is Run with cancellation: the simulation stops at the next
// poll point after ctx is done and returns the partial report with
// ctx.Err().
func RunContext(ctx context.Context, opts Options, spec Experiment) (*Report, error) {
	return core.RunExperiment(ctx, opts, spec)
}

// ProfileA, ProfileB and ProfileC return the Table I drive models.
func ProfileA() SSDProfile { return ssd.ProfileA() }

// ProfileB returns the TLC drive model of Table I.
func ProfileB() SSDProfile { return ssd.ProfileB() }

// ProfileC returns the second MLC drive model of Table I.
func ProfileC() SSDProfile { return ssd.ProfileC() }

// ProfileQ returns the QLC extension drive beyond Table I: dense, big
// volatile cache, slow programs — the weakest member of a heterogeneous
// array.
func ProfileQ() SSDProfile { return ssd.ProfileQ() }

// Profiles returns all stock drive models.
func Profiles() []SSDProfile { return ssd.Profiles() }

// ProfileByName finds a stock profile ("A", "B", "C", "Q").
func ProfileByName(name string) (SSDProfile, bool) { return ssd.ProfileByName(name) }

// DefaultWorkload is the paper's base workload: uniform random writes,
// 4 KiB-1 MiB, 16 GB working set.
func DefaultWorkload() Workload { return workload.DefaultSpec() }

// DefaultPSU returns the Fig. 4-calibrated supply model.
func DefaultPSU() PSUConfig { return power.DefaultConfig() }

// DefaultHDD returns the write-through desktop drive model.
func DefaultHDD() HDDProfile { return hdd.DefaultProfile() }

// HDDTopology selects a single hard disk behind the block layer.
func HDDTopology(prof HDDProfile) Topology {
	return Topology{Kind: TopoHDD, HDD: prof}
}

// ArrayTopology selects a composite device behind the block layer.
func ArrayTopology(cfg ArrayConfig) Topology {
	return Topology{Kind: TopoArray, Array: cfg}
}

// RAIDConfig builds an n-member array of identical drives at the given
// level (RAID0, RAID1, RAID5 or RAID6).
func RAIDConfig(level ArrayLevel, n int, member SSDProfile) ArrayConfig {
	members := make([]SSDProfile, n)
	for i := range members {
		members[i] = member
	}
	return ArrayConfig{Level: level, Members: members}
}

// RSConfig builds a data+parity Reed-Solomon array of identical drives:
// any parity simultaneous member losses stay reconstructable.
func RSConfig(data, parity int, member SSDProfile) ArrayConfig {
	cfg := RAIDConfig(RS, data+parity, member)
	cfg.Parity = parity
	return cfg
}

// MixedRAIDConfig builds a heterogeneous array from an explicit member
// list at the given level; capacity is the smallest member's times the
// data-member count, and MemberReport shows the failures charged to each
// drive for the pages it held.
func MixedRAIDConfig(level ArrayLevel, members ...SSDProfile) ArrayConfig {
	return ArrayConfig{Level: level, Members: members}
}

// CacheConfig builds an SSD-cache-over-HDD array with the given policy.
func CacheConfig(cache SSDProfile, backing HDDProfile, policy CachePolicy) ArrayConfig {
	return ArrayConfig{Level: Cached, Cache: cache, Backing: backing, Policy: policy}
}

// ParseTrace parses an MSR-Cambridge-style CSV block trace from r (see
// internal/trace for the accepted formats). Assign the result to an
// Experiment via TraceReplay or a TraceConfig.
func ParseTrace(r io.Reader, name string) (*TraceWorkload, error) { return trace.Parse(r, name) }

// ParseTraceFile parses the block trace at path; the trace name is the
// base filename without its extension.
func ParseTraceFile(path string) (*TraceWorkload, error) { return trace.ParseFile(path) }

// TraceReplay returns the Experiment.Trace configuration replaying tr in
// the given mode. The experiment's Workload is ignored — the replayer
// generates the IO stream, scaled/clamped to the device's address space,
// looping over the trace for as long as the fault schedule needs.
func TraceReplay(tr *TraceWorkload, mode TraceMode) *TraceConfig {
	return &TraceConfig{Trace: tr, Mode: mode}
}

// DefaultTxnConfig returns the stock transaction-engine tuning: one WAL
// stream, 4 pages per transaction, flush-per-commit, checkpoint every 32
// commits, a 512-page log region, hole-tolerant primary recovery.
func DefaultTxnConfig() TxnConfig { return txn.DefaultConfig() }

// TxnApp enables the transactional WAL application layer with cfg; assign
// the result to Options.App. The experiment's Workload is ignored — the
// engine generates its own IO stream — and after every fault the recovery
// oracle classifies each acknowledged transaction into the Report's
// TxnStats.
func TxnApp(cfg TxnConfig) AppConfig { return AppConfig{Txn: &cfg} }

// DefaultFleetConfig returns the stock fleet: 8 single-parity groups of 4
// with 2 standby spares on a 2-rack × 2-enclosure × 2-PSU fault-domain
// tree, 3 random PSU-level cuts over 30 simulated seconds. Set Parity for
// RAID-6-like or wider m+k groups.
func DefaultFleetConfig() FleetConfig { return fleet.DefaultConfig() }

// FleetNines converts an availability or durability fraction into "nines"
// (0.999 → 3), capped at 12 for a run with no observed unavailability.
func FleetNines(x float64) float64 { return fleet.Nines(x) }

// DefaultObsConfig returns the full-observability configuration: metrics
// and tracing on, with the stock trace-ring capacity.
func DefaultObsConfig() ObsConfig {
	return ObsConfig{Metrics: true, Trace: true, TraceCap: obs.DefaultTraceCap}
}

// MergeObsSummaries merges per-experiment observability summaries into
// one (counters add, gauges sum, histograms merge bucket-exact); nil
// entries are skipped and an all-nil input returns nil. The merge is
// order-independent, so parallel campaigns aggregate deterministically.
func MergeObsSummaries(parts []*ObsSummary) *ObsSummary { return obs.MergeSummaries(parts) }

// WriteObsChromeTrace writes the processes' structured events as a Chrome
// trace-event JSON array loadable in Perfetto (https://ui.perfetto.dev)
// or chrome://tracing. Output bytes are deterministic for a given input.
func WriteObsChromeTrace(w io.Writer, procs []ObsProcess) error {
	return obs.WriteChromeTrace(w, procs)
}
