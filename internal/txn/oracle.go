package txn

import (
	"fmt"
	"sort"
	"strings"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/obs"
)

// Verdict classifies one acknowledged transaction after crash recovery.
type Verdict int

// Verdicts.
const (
	// VerdictIntact: the commit record survived and every page is
	// recoverable (redo from a durable log record, or already at home).
	VerdictIntact Verdict = iota
	// VerdictLostCommit: the commit was acknowledged to the application
	// but no durable commit record exists — recovery rolls the
	// transaction back. The application-level analog of the paper's false
	// write acknowledge.
	VerdictLostCommit
	// VerdictTorn: the commit record survived but one or more pages are
	// unrecoverable — redo cannot complete and atomicity is broken.
	VerdictTorn
	// VerdictOutOfOrder: a lost commit with a later acknowledged commit
	// whose record did survive — durability was reordered across the
	// barrier, the transaction-granularity form of the paper's
	// unserializable writes. With several streams the reordering can span
	// streams: the later commit may belong to a different stream.
	VerdictOutOfOrder
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictIntact:
		return "intact"
	case VerdictLostCommit:
		return "lost-commit"
	case VerdictTorn:
		return "torn"
	case VerdictOutOfOrder:
		return "out-of-order"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// RecoveryPolicy selects how a recovery implementation scans the log.
// The oracle judges every fault cycle under ALL policies on the same
// observed device state (the ablation); Config.Policy picks which one
// the headline stats reflect.
type RecoveryPolicy int

// Recovery policies.
const (
	// HoleTolerant replays every durable record in the scanned region: a
	// valid record past a torn slot still counts. This is the best any
	// recovery implementation could do — it measures what the device
	// actually kept.
	HoleTolerant RecoveryPolicy = iota
	// StrictScan stops each stream's scan at the first torn slot, the way
	// a classic sequential log scan does: everything behind the tear is
	// unreachable even if it is durable on media. The losses it adds over
	// HoleTolerant are exactly the durable-but-unreachable commits.
	StrictScan

	// NumRecoveryPolicies sizes per-policy arrays.
	NumRecoveryPolicies = 2
)

// String implements fmt.Stringer.
func (p RecoveryPolicy) String() string {
	switch p {
	case HoleTolerant:
		return "hole-tolerant"
	case StrictScan:
		return "strict-scan"
	default:
		return fmt.Sprintf("RecoveryPolicy(%d)", int(p))
	}
}

// MarshalJSON renders the policy by name.
func (p RecoveryPolicy) MarshalJSON() ([]byte, error) { return []byte(`"` + p.String() + `"`), nil }

// UnmarshalJSON parses a policy name.
func (p *RecoveryPolicy) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"hole-tolerant"`:
		*p = HoleTolerant
	case `"strict-scan"`:
		*p = StrictScan
	default:
		return fmt.Errorf("txn: unknown recovery policy %s", data)
	}
	return nil
}

// Stats aggregates the engine and oracle counters across an experiment.
// The verdict fields (Evaluated through ScanPages) are those of one
// recovery policy — the Policy field names it; Engine.StatsFor returns
// the same engine counters with another policy's verdicts.
type Stats struct {
	// Policy is the recovery policy the verdict fields below were judged
	// under.
	Policy RecoveryPolicy `json:"policy"`

	// Started counts transactions the engine began; Committed counts
	// commits acknowledged to the application; Retired counts
	// transactions made fully durable by a checkpoint (never judged).
	Started   int64 `json:"started"`
	Committed int64 `json:"committed"`
	Retired   int64 `json:"retired"`

	// Evaluated is the number of acknowledged transactions judged by the
	// oracle at fault cycles; the four verdict classes partition it.
	Evaluated   int64 `json:"evaluated"`
	Intact      int64 `json:"intact"`
	LostCommits int64 `json:"lost_commits"`
	Torn        int64 `json:"torn"`
	OutOfOrder  int64 `json:"out_of_order"`

	// Unacked counts transactions in flight (not yet acknowledged) when a
	// cut landed; they carry no durability promise and are not failures.
	Unacked int64 `json:"unacked"`

	// OldestLostSeq is the smallest commit sequence number among all
	// lost/torn/out-of-order transactions (0 when nothing was lost): how
	// far back the damage reaches. Sequence spaces are per stream, so
	// with several streams this is the minimum across them.
	OldestLostSeq uint64 `json:"oldest_lost_seq"`

	// RecoveryScans counts oracle runs; ScanPages sums the log pages each
	// scan read under this policy (a strict scan stops at the first torn
	// slot, so its scans are shorter).
	RecoveryScans int64 `json:"recovery_scans"`
	ScanPages     int64 `json:"scan_pages"`

	Checkpoints int64 `json:"checkpoints"`
	Flushes     int64 `json:"flushes"`
	LogAppends  int64 `json:"log_appends"`
	HomeWrites  int64 `json:"home_writes"`
}

// Losses returns the transactions whose durability promise was broken.
func (s Stats) Losses() int64 { return s.LostCommits + s.Torn + s.OutOfOrder }

// String renders a compact summary.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "txn[%s]: %d committed (%d retired), %d evaluated: %d intact, %d lost-commit, %d torn, %d out-of-order; %d unacked",
		s.Policy, s.Committed, s.Retired, s.Evaluated, s.Intact, s.LostCommits, s.Torn, s.OutOfOrder, s.Unacked)
	if s.OldestLostSeq > 0 {
		fmt.Fprintf(&b, "; oldest lost seq %d", s.OldestLostSeq)
	}
	return b.String()
}

// policyFold accumulates one policy's verdicts across fault cycles.
type policyFold struct {
	evaluated     int64
	intact        int64
	lostCommits   int64
	torn          int64
	outOfOrder    int64
	scanPages     int64
	oldestLostSeq uint64
}

// StatsFor returns the experiment counters with the verdict fields of
// the given recovery policy.
func (e *Engine) StatsFor(p RecoveryPolicy) Stats {
	s := e.stats
	f := e.folds[p]
	s.Policy = p
	s.Evaluated = f.evaluated
	s.Intact = f.intact
	s.LostCommits = f.lostCommits
	s.Torn = f.torn
	s.OutOfOrder = f.outOfOrder
	s.ScanPages = f.scanPages
	s.OldestLostSeq = f.oldestLostSeq
	return s
}

// Stats returns a snapshot of the engine's counters under the primary
// recovery policy (Config.Policy).
func (e *Engine) Stats() Stats { return e.StatsFor(e.cfg.Policy) }

// observation is the post-recovery content of one page.
type observation struct {
	fp  content.Fingerprint
	err error
	ok  bool
}

// CycleVerdicts is one recovery policy's outcome for one oracle run: the
// per-fault-cycle verdict counts, reported next to the block-level
// PerFault breakdown.
type CycleVerdicts struct {
	Evaluated   int `json:"evaluated"`
	Intact      int `json:"intact"`
	LostCommits int `json:"lost_commits"`
	Torn        int `json:"torn"`
	OutOfOrder  int `json:"out_of_order"`
	Unacked     int `json:"unacked"`
	ScanPages   int `json:"scan_pages"`
}

// Losses returns the cycle's broken durability promises.
func (c CycleVerdicts) Losses() int { return c.LostCommits + c.Torn + c.OutOfOrder }

// CycleOutcome is the outcome of one oracle run: the same observed
// post-fault state judged under every recovery policy. The embedded
// CycleVerdicts are the primary policy's (Config.Policy), so existing
// consumers read the headline numbers directly; Policies carries the
// full ablation, indexed by RecoveryPolicy.
type CycleOutcome struct {
	CycleVerdicts
	Policies [NumRecoveryPolicies]CycleVerdicts `json:"policies"`
}

// Unreachable returns the commits the strict scan abandoned even though
// their records were durable on media: the strict-scan losses minus the
// hole-tolerant losses. It is never negative — strict durable sets are
// subsets of hole-tolerant ones.
func (c CycleOutcome) Unreachable() int {
	return c.Policies[StrictScan].Losses() - c.Policies[HoleTolerant].Losses()
}

// RecoveryReads returns the pages the oracle needs after the device
// recovered: every stream's log partition up to its generation
// high-water mark (the recovery scan), then every ledger transaction's
// home pages. The engine stops producing workload IOs until
// FinishRecovery. Order is deterministic; duplicates are removed.
func (e *Engine) RecoveryReads() []addr.LPN {
	e.recovering = true
	e.obs = make(map[addr.LPN]observation)
	seen := make(map[addr.LPN]bool)
	var out []addr.LPN
	for _, st := range e.streams {
		for rel := 0; rel < st.highWater; rel++ {
			lpn := e.logSlotLPN(st.base + rel)
			if !seen[lpn] {
				seen[lpn] = true
				out = append(out, lpn)
			}
		}
	}
	for _, t := range e.ledger {
		for _, p := range t.pages {
			if !seen[p.homeLPN] {
				seen[p.homeLPN] = true
				out = append(out, p.homeLPN)
			}
		}
	}
	return out
}

// Observe records the post-recovery content of one page (one page per
// call). A read that kept failing is recorded with its error and treated
// as unreadable.
func (e *Engine) Observe(lpn addr.LPN, fp content.Fingerprint, err error) {
	e.obs[lpn] = observation{fp: fp, err: err, ok: err == nil}
}

// replaySets is what one policy's log scan recovered: the commit and
// data records it reached, and how many log pages it read.
type replaySets struct {
	commits map[uint64]bool            // txn id -> commit record reached
	data    map[uint64]map[uint32]bool // txn id -> page index -> record reached
	scanned int
}

// slotDurable reports whether the absolute log slot read back as exactly
// the record the stream wrote there in its current generation, returning
// the record bytes when it did.
func (e *Engine) slotDurable(st *wstream, abs int) ([]byte, bool) {
	ob, ok := e.obs[e.logSlotLPN(abs)]
	if !ok || !ob.ok {
		return nil, false // unread or unreadable: torn slot
	}
	h := e.slots[abs]
	var cur *slotWrite
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].gen == st.gen {
			cur = &h[i]
			break // latest current-generation write
		}
	}
	if cur == nil || ob.fp != cur.fp {
		return nil, false // stale previous content or corruption: torn slot
	}
	return cur.bytes, true
}

// replay scans every stream's partition under the given policy and
// rebuilds the redo and commit sets a recovery pass would see. The
// strict policy stops each stream's scan at the first torn slot (the
// stopping slot counts as read); hole-tolerant reads the whole scan set.
func (e *Engine) replay(policy RecoveryPolicy) replaySets {
	sets := replaySets{
		commits: make(map[uint64]bool),
		data:    make(map[uint64]map[uint32]bool),
	}
	for _, st := range e.streams {
		for rel := 0; rel < st.highWater; rel++ {
			sets.scanned++
			b, ok := e.slotDurable(st, st.base+rel)
			if !ok {
				if policy == StrictScan {
					break // everything behind the tear is unreachable
				}
				continue
			}
			rec, err := DecodeRecord(b)
			if err != nil {
				continue // cannot happen for engine-encoded records; defensive
			}
			switch rec.Type {
			case RecCommit:
				sets.commits[rec.Txn] = true
			case RecData:
				m := sets.data[rec.Txn]
				if m == nil {
					m = make(map[uint32]bool)
					sets.data[rec.Txn] = m
				}
				m[rec.Count] = true
			}
		}
	}
	return sets
}

// judge classifies the acknowledged transactions (in global ack order)
// against one policy's replay sets. laterSurvives[i] reports whether any
// transaction acknowledged after i kept its commit record — the witness
// that turns a lost commit into an out-of-order loss.
func (e *Engine) judge(acked []*Txn, sets replaySets) (CycleVerdicts, uint64) {
	var out CycleVerdicts
	out.ScanPages = sets.scanned
	laterSurvives := make([]bool, len(acked))
	for i := len(acked) - 2; i >= 0; i-- {
		laterSurvives[i] = laterSurvives[i+1] || sets.commits[acked[i+1].id]
	}
	oldestLost := uint64(0)
	for i, t := range acked {
		out.Evaluated++
		var v Verdict
		switch {
		case !sets.commits[t.id]:
			v = VerdictLostCommit
			if laterSurvives[i] {
				v = VerdictOutOfOrder
			}
		default:
			v = VerdictIntact
			for pi, p := range t.pages {
				redo := sets.data[t.id][uint32(pi)]
				home := false
				if ob, ok := e.obs[p.homeLPN]; ok && ob.ok && ob.fp == p.fp {
					home = true
				}
				if !redo && !home {
					v = VerdictTorn
					break
				}
			}
		}
		switch v {
		case VerdictIntact:
			out.Intact++
		case VerdictLostCommit:
			out.LostCommits++
		case VerdictTorn:
			out.Torn++
		case VerdictOutOfOrder:
			out.OutOfOrder++
		}
		if v != VerdictIntact && (oldestLost == 0 || t.commitSeq < oldestLost) {
			oldestLost = t.commitSeq
		}
	}
	return out, oldestLost
}

// FinishRecovery replays the observed log exactly as a recovery pass
// would — decode every reachable durable record in slot order, rebuild
// the redo and commit sets — once per recovery policy, then judges each
// acknowledged ledger transaction under each policy, folds the verdicts
// into the per-policy stats, resets the engine to fresh partition
// generations, and returns the cycle's breakdown.
//
// Both policies see the identical observations, so the outcome is a true
// ablation: the strict scan can only lose more (its durable sets are
// subsets of the hole-tolerant ones), and the difference is exactly the
// durable-but-unreachable commits a first-tear-stops scan abandons.
func (e *Engine) FinishRecovery() CycleOutcome {
	var out CycleOutcome

	var acked []*Txn
	unacked := 0
	for _, t := range e.ledger {
		if t.acked {
			acked = append(acked, t)
		} else {
			unacked++
		}
	}
	// Judge in the order durability promises were made (global ack
	// order). The ledger appends at begin time, which with several
	// streams is not ack order.
	sort.Slice(acked, func(i, j int) bool { return acked[i].ackIdx < acked[j].ackIdx })

	for p := RecoveryPolicy(0); p < NumRecoveryPolicies; p++ {
		sets := e.replay(p)
		verdicts, oldestLost := e.judge(acked, sets)
		verdicts.Unacked = unacked
		out.Policies[p] = verdicts

		f := &e.folds[p]
		f.evaluated += int64(verdicts.Evaluated)
		f.intact += int64(verdicts.Intact)
		f.lostCommits += int64(verdicts.LostCommits)
		f.torn += int64(verdicts.Torn)
		f.outOfOrder += int64(verdicts.OutOfOrder)
		f.scanPages += int64(verdicts.ScanPages)
		if oldestLost > 0 && (f.oldestLostSeq == 0 || oldestLost < f.oldestLostSeq) {
			f.oldestLostSeq = oldestLost
		}
	}
	out.CycleVerdicts = out.Policies[e.cfg.Policy]

	e.stats.Unacked += int64(unacked)
	e.stats.RecoveryScans++
	e.tele.sc.Instant(e.k.Now(), obs.KindScan, "recovery_scan", int64(out.CycleVerdicts.ScanPages))

	// Reset: the application restarts with an empty ledger and fresh
	// partition generations; in-flight state died with the power.
	e.ledger = nil
	for _, st := range e.streams {
		st.cur = nil
		st.gen++
		st.cursor = 0
		st.highWater = 0
		st.sinceCkpt = 0
		st.ckptDue, st.ckptRecDue = false, false
	}
	e.rr = 0
	e.homeQ = nil
	e.homeRetry = nil
	e.waiters = nil
	e.flushWanted, e.flushCover = false, nil
	e.inFlush = false
	e.outstanding = 0
	e.recovering = false
	e.obs = make(map[addr.LPN]observation)
	return out
}
