package txn

import (
	"fmt"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/obs"
	"powerfail/internal/sim"
)

// Barrier selects the engine's commit durability policy.
type Barrier int

// Barrier policies.
const (
	// FlushPerCommit issues an OpFlush after every commit record and
	// acknowledges the commit only when the flush completes: the strict
	// fsync-per-transaction discipline. With several streams in flight the
	// flushes coalesce — commits from other streams that land before the
	// barrier is issued ride the same flush, exactly like fsync batching
	// in a real WAL.
	FlushPerCommit Barrier = iota
	// GroupCommit batches commits and issues one flush per GroupEvery
	// acknowledgements-in-waiting; every covered commit acknowledges when
	// the shared flush completes. The batch fills across streams.
	GroupCommit
	// NoFlush acknowledges a commit as soon as the device ACKs the commit
	// record write — exposing whatever volatile-cache lie the device tells.
	NoFlush
)

// String implements fmt.Stringer.
func (b Barrier) String() string {
	switch b {
	case FlushPerCommit:
		return "flush"
	case GroupCommit:
		return "group"
	case NoFlush:
		return "noflush"
	default:
		return fmt.Sprintf("Barrier(%d)", int(b))
	}
}

// MarshalJSON renders the barrier by name.
func (b Barrier) MarshalJSON() ([]byte, error) { return []byte(`"` + b.String() + `"`), nil }

// UnmarshalJSON parses a barrier name, so marshaled configs (run
// archives, report JSON) decode back into typed values.
func (b *Barrier) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"flush"`:
		*b = FlushPerCommit
	case `"group"`:
		*b = GroupCommit
	case `"noflush"`:
		*b = NoFlush
	default:
		return fmt.Errorf("txn: unknown barrier %s", data)
	}
	return nil
}

// MaxStreams bounds the stream count (the log region must still hold a
// useful partition per stream).
const MaxStreams = 64

// Config tunes the transaction engine.
type Config struct {
	// Streams is the number of independent WAL streams (default 1). Each
	// stream has its own sequence-number space and log partition and runs
	// its own transaction pipeline; the engine interleaves their IOs, so
	// commit records from different streams mix on the device.
	Streams int `json:"streams,omitempty"`
	// PagesPerTxn is the number of home pages each transaction updates
	// (the atomicity unit; default 4).
	PagesPerTxn int `json:"pages_per_txn"`
	// Barrier is the commit durability policy.
	Barrier Barrier `json:"barrier"`
	// GroupEvery is the group-commit batch size (default 8; only used by
	// the GroupCommit barrier). The batch counts commits across streams.
	GroupEvery int `json:"group_every,omitempty"`
	// CheckpointEvery truncates a stream's log partition after this many
	// acknowledged commits on that stream (default 32). Checkpoints
	// flush, rewrite nothing (home locations are written eagerly after
	// each ack), stamp a checkpoint record, and reset the stream's append
	// cursor.
	CheckpointEvery int `json:"checkpoint_every"`
	// LogPages is the size of the on-device log region in 4 KiB pages
	// (default 512), split evenly into per-stream partitions. The home
	// region is everything above it.
	LogPages int `json:"log_pages"`
	// Policy is the primary recovery policy: the one Stats() and the
	// report's headline TxnStats reflect. The oracle always judges every
	// fault under all policies (the ablation), so the alternative's
	// verdicts are never lost. Default HoleTolerant.
	Policy RecoveryPolicy `json:"recovery_policy"`
}

// DefaultConfig returns the stock engine tuning.
func DefaultConfig() Config {
	return Config{Streams: 1, PagesPerTxn: 4, Barrier: FlushPerCommit, GroupEvery: 8, CheckpointEvery: 32, LogPages: 512}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Streams == 0 {
		c.Streams = d.Streams
	}
	if c.PagesPerTxn == 0 {
		c.PagesPerTxn = d.PagesPerTxn
	}
	if c.GroupEvery == 0 {
		c.GroupEvery = d.GroupEvery
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = d.CheckpointEvery
	}
	if c.LogPages == 0 {
		c.LogPages = d.LogPages
	}
	return c
}

// Validate checks the configuration (after defaulting).
func (c Config) Validate() error {
	if c.Streams < 1 || c.Streams > MaxStreams {
		return fmt.Errorf("txn: Streams %d out of range [1,%d]", c.Streams, MaxStreams)
	}
	if c.PagesPerTxn < 1 || c.PagesPerTxn > 64 {
		return fmt.Errorf("txn: PagesPerTxn %d out of range [1,64]", c.PagesPerTxn)
	}
	if c.Barrier < FlushPerCommit || c.Barrier > NoFlush {
		return fmt.Errorf("txn: unknown barrier %d", int(c.Barrier))
	}
	if c.Policy < HoleTolerant || c.Policy > StrictScan {
		return fmt.Errorf("txn: unknown recovery policy %d", int(c.Policy))
	}
	if c.GroupEvery < 1 {
		return fmt.Errorf("txn: GroupEvery must be positive, got %d", c.GroupEvery)
	}
	if c.CheckpointEvery < 1 {
		return fmt.Errorf("txn: CheckpointEvery must be positive, got %d", c.CheckpointEvery)
	}
	// A partition needs PagesPerTxn data records + a commit + a free slot
	// for the next checkpoint record, ON TOP of the checkpoint record a
	// freshly truncated generation already starts with — one slot short
	// of that and the engine livelocks in a checkpoint storm after its
	// first transaction.
	if per := c.LogPages / c.Streams; per < c.PagesPerTxn+3 {
		return fmt.Errorf("txn: LogPages %d over %d streams leaves %d-page partitions that cannot hold a %d-page transaction plus commit and checkpoint records",
			c.LogPages, c.Streams, per, c.PagesPerTxn)
	}
	return nil
}

// IOKind tags an engine-issued IO.
type IOKind int

// Engine IO kinds.
const (
	IOLog        IOKind = iota // one WAL data-record page
	IOCommit                   // one commit-record page
	IOCheckpoint               // one checkpoint-record page
	IOHome                     // one home-location data page
	IOFlush                    // a commit-barrier or checkpoint flush
)

// String implements fmt.Stringer.
func (k IOKind) String() string {
	switch k {
	case IOLog:
		return "log"
	case IOCommit:
		return "commit"
	case IOCheckpoint:
		return "checkpoint"
	case IOHome:
		return "home"
	case IOFlush:
		return "flush"
	default:
		return fmt.Sprintf("IOKind(%d)", int(k))
	}
}

// IO is one request the engine wants on the wire. Writes are always a
// single page; flushes carry no pages. The unexported fields route the
// completion back to the owning transaction state.
type IO struct {
	Kind IOKind
	LPN  addr.LPN
	Data content.Data // one-page payload for writes; empty for flushes

	t     *Txn
	page  int    // IOLog/IOHome: page index within the transaction
	cover []*Txn // IOFlush: transactions acknowledged when it completes
	ckpt  bool   // IOFlush: this flush opens a checkpoint
}

// Pages returns the request size in pages (0 for flushes).
func (io IO) Pages() int {
	if io.Kind == IOFlush {
		return 0
	}
	return 1
}

// txnPage is one home page of a transaction and its WAL data record.
type txnPage struct {
	homeLPN addr.LPN
	fp      content.Fingerprint // the new home content
	slot    int                 // absolute log slot holding the data record
	recFP   content.Fingerprint // fingerprint of the encoded record page
	seq     uint64
}

// Txn is one transaction's ground truth, kept in the engine's ledger until
// it is retired by a checkpoint or judged by the oracle.
type Txn struct {
	id     uint64
	stream int
	pages  []txnPage

	commitSeq  uint64
	commitSlot int // absolute
	commitFP   content.Fingerprint

	logIssued int // data-record writes handed to the runner
	logAcked  int // data-record writes acknowledged
	committed bool
	acked     bool
	ackedAt   sim.Time
	ackIdx    uint64 // global acknowledgement order (the durability promise order)
	homeNext  int    // next home write to issue
	homeAcked int
	aborted   bool
	startedAt sim.Time
}

// ID returns the transaction id (for tests).
func (t *Txn) ID() uint64 { return t.id }

// Stream returns the WAL stream the transaction ran on (for tests).
func (t *Txn) Stream() int { return t.stream }

// slotWrite is one generation of content written to a log slot; the
// history lets the oracle tell "current record", "stale previous content"
// and "corrupted" apart by fingerprint.
type slotWrite struct {
	gen   uint64
	seq   uint64
	fp    content.Fingerprint
	bytes []byte
}

// slotHistoryCap bounds the per-slot write history; the oracle only ever
// needs the current generation plus enough depth to recognise staleness.
const slotHistoryCap = 4

// homeRef names one home page of a transaction for a retried write.
type homeRef struct {
	t    *Txn
	page int
}

// wstream is one WAL stream's private state: a sequence-number space, a
// log partition with its own append cursor and generation, and a
// transaction pipeline. Everything else — the group-commit batch, the
// barrier flush, home writes, the ledger — is shared across streams.
type wstream struct {
	id   int
	base int // first absolute log slot of the partition
	size int // partition size in slots

	seq       uint64 // next record sequence number (per-stream space)
	gen       uint64 // partition generation, bumped at each truncation
	cursor    int    // next free slot, relative to base
	highWater int    // one past the highest slot written this generation

	cur        *Txn
	sinceCkpt  int
	ckptDue    bool
	ckptRecDue bool
}

// Engine is the multi-stream WAL transaction state machine. The
// experiment runner pulls IOs with Next, issues them through the host
// block layer, and reports completions with Done; the engine never
// touches the device directly, so every one of its writes crosses the
// same split/queue/trace path — and the same analyzer shadow — as plain
// workload traffic. With Streams > 1 the engine round-robins the stream
// pipelines, so log and commit records from different streams interleave
// on the wire and out-of-order durability can span streams.
type Engine struct {
	cfg       Config
	k         *sim.Kernel
	rng       *sim.RNG
	userPages int64

	nextID uint64 // next transaction id (global)
	ackSeq uint64 // next global acknowledgement index

	streams   []*wstream
	perStream int // partition size (LogPages / Streams)
	rr        int // round-robin cursor over streams

	homeQ       []*Txn    // acked transactions with home writes left to issue
	homeRetry   []homeRef // home writes that errored, awaiting reissue
	waiters     []*Txn    // group-commit: committed, awaiting the shared flush
	flushWanted bool      // a commit-barrier flush is due (cover in flushCover)
	flushCover  []*Txn
	inFlush     bool

	outstanding int
	ledger      []*Txn
	slots       map[int][]slotWrite

	recovering bool
	obs        map[addr.LPN]observation

	stats Stats                           // engine counters + policy-independent oracle counters
	folds [NumRecoveryPolicies]policyFold // per-policy verdict accumulation
	tele  engineObs

	aborts int64 // unacknowledged transactions taken out after an IO error
}

// NewEngine builds an engine over a device of userPages host-visible
// pages. The RNG must be a dedicated fork; the engine consumes it for
// home placement and payload content.
func NewEngine(cfg Config, k *sim.Kernel, rng *sim.RNG, userPages int64) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if userPages < int64(cfg.LogPages)*2 {
		return nil, fmt.Errorf("txn: device too small: %d pages for a %d-page log region", userPages, cfg.LogPages)
	}
	e := &Engine{
		cfg:       cfg,
		k:         k,
		rng:       rng,
		userPages: userPages,
		nextID:    1,
		perStream: cfg.LogPages / cfg.Streams,
		slots:     make(map[int][]slotWrite),
		obs:       make(map[addr.LPN]observation),
	}
	e.streams = make([]*wstream, cfg.Streams)
	for i := range e.streams {
		e.streams[i] = &wstream{id: i, base: i * e.perStream, size: e.perStream}
	}
	return e, nil
}

// Config returns the effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// logSlotLPN maps an absolute log slot to its device address: the log
// region is the first LogPages pages of the device.
func (e *Engine) logSlotLPN(slot int) addr.LPN { return addr.LPN(slot) }

// appendRecord stamps rec into the stream's relative slot: encodes it,
// fingerprints the encoded page, and records the write in the slot
// history (under the stream's current generation) for the oracle. It
// returns the absolute slot and the fingerprint.
func (e *Engine) appendRecord(st *wstream, rel int, rec Record) (int, content.Fingerprint) {
	abs := st.base + rel
	b := EncodeRecord(rec)
	fp := content.FromBytes(b)
	h := e.slots[abs]
	h = append(h, slotWrite{gen: st.gen, seq: rec.Seq, fp: fp, bytes: b})
	if len(h) > slotHistoryCap {
		h = h[len(h)-slotHistoryCap:]
	}
	e.slots[abs] = h
	return abs, fp
}

// beginTxn allocates log slots, payload content and home locations for a
// fresh transaction on st. It requires PagesPerTxn+1 free slots in the
// stream's partition; callers check space first.
func (e *Engine) beginTxn(st *wstream) *Txn {
	k := e.cfg.PagesPerTxn
	t := &Txn{id: e.nextID, stream: st.id, pages: make([]txnPage, k), startedAt: e.k.Now()}
	e.nextID++
	e.tele.sc.Instant(e.k.Now(), obs.KindTxn, "begin", int64(t.id))
	homeSpan := e.userPages - int64(e.cfg.LogPages)
	for i := 0; i < k; i++ {
		fp := content.Fingerprint(e.rng.Uint64())
		if fp == content.Zero {
			fp = 1
		}
		home := addr.LPN(int64(e.cfg.LogPages) + e.rng.Int63n(homeSpan))
		seq := st.seq
		st.seq++
		rel := st.cursor
		st.cursor++
		abs, recFP := e.appendRecord(st, rel, Record{
			Type: RecData, Seq: seq, Txn: t.id, Stream: uint32(st.id),
			HomeLPN: uint64(home), Payload: uint64(fp), Count: uint32(i),
		})
		t.pages[i] = txnPage{homeLPN: home, fp: fp, slot: abs, recFP: recFP, seq: seq}
	}
	t.commitSeq = st.seq
	st.seq++
	rel := st.cursor
	st.cursor++
	t.commitSlot, t.commitFP = e.appendRecord(st, rel, Record{
		Type: RecCommit, Seq: t.commitSeq, Txn: t.id, Stream: uint32(st.id), Count: uint32(k),
	})
	e.ledger = append(e.ledger, t)
	e.stats.Started++
	return t
}

// raiseWater lifts the stream's high-water mark to cover the absolute
// slot just put on the wire.
func (st *wstream) raiseWater(abs int) {
	if rel := abs - st.base + 1; rel > st.highWater {
		st.highWater = rel
	}
}

// anyCkptDue reports whether some stream wants a log truncation.
func (e *Engine) anyCkptDue() bool {
	for _, st := range e.streams {
		if st.ckptDue {
			return true
		}
	}
	return false
}

// Next returns the engine's next IO, or ok=false when it is waiting on
// completions (or recovering). Whenever the engine has zero outstanding
// IOs and is not recovering, Next is guaranteed to produce an IO, so a
// closed loop over Next/Done never stalls.
func (e *Engine) Next() (IO, bool) {
	if e.recovering {
		return IO{}, false
	}
	// 1. A wanted commit-barrier flush always goes first: it gates every
	// acknowledgement behind it.
	if e.flushWanted && !e.inFlush {
		e.flushWanted = false
		e.inFlush = true
		io := IO{Kind: IOFlush, cover: e.flushCover}
		e.flushCover = nil
		e.outstanding++
		e.stats.Flushes++
		return io, true
	}
	if e.inFlush {
		// Nothing overtakes a barrier in flight: later writes entering the
		// volatile cache behind the flush would blur what the barrier
		// acknowledged.
		return IO{}, false
	}
	// 2. Checkpoint records that follow a checkpoint flush, one per
	// truncated stream.
	for _, st := range e.streams {
		if !st.ckptRecDue {
			continue
		}
		st.ckptRecDue = false
		seq := st.seq
		st.seq++
		rel := st.cursor
		st.cursor++
		abs, fp := e.appendRecord(st, rel, Record{
			Type: RecCheckpoint, Seq: seq, Stream: uint32(st.id), Count: uint32(e.stats.Retired),
		})
		st.raiseWater(abs)
		e.outstanding++
		return IO{Kind: IOCheckpoint, LPN: e.logSlotLPN(abs), Data: content.Make(fp)}, true
	}
	// 3. Drain home writes of acknowledged transactions, retries first.
	if len(e.homeRetry) > 0 {
		ref := e.homeRetry[0]
		e.homeRetry = e.homeRetry[1:]
		p := ref.t.pages[ref.page]
		e.outstanding++
		e.stats.HomeWrites++
		return IO{Kind: IOHome, LPN: p.homeLPN, Data: content.Make(p.fp), t: ref.t, page: ref.page}, true
	}
	for len(e.homeQ) > 0 {
		t := e.homeQ[0]
		if t.homeNext >= len(t.pages) {
			e.homeQ = e.homeQ[1:]
			continue
		}
		p := t.pages[t.homeNext]
		idx := t.homeNext
		t.homeNext++
		e.outstanding++
		e.stats.HomeWrites++
		return IO{Kind: IOHome, LPN: p.homeLPN, Data: content.Make(p.fp), t: t, page: idx}, true
	}
	// 4. Advance the stream pipelines round-robin: the next stream with an
	// issuable log or commit write goes on the wire, and an idle stream
	// begins a fresh transaction in its turn — so records from different
	// streams interleave on the device instead of one stream flooding the
	// queue. While any stream wants a checkpoint no new transactions
	// start (the quiesce below must complete), but in-flight ones drain
	// normally. A stream whose partition cannot hold another transaction
	// (PagesPerTxn data records + commit + a checkpoint slot) schedules
	// its truncation instead of beginning.
	n := len(e.streams)
	ckptPending := e.anyCkptDue()
	for i := 0; i < n; i++ {
		st := e.streams[(e.rr+i)%n]
		t := st.cur
		if t == nil {
			if ckptPending {
				continue
			}
			if st.cursor+e.cfg.PagesPerTxn+2 > st.size {
				st.ckptDue = true
				ckptPending = true
				continue
			}
			t = e.beginTxn(st)
			st.cur = t
		}
		if t.logIssued < len(t.pages) {
			p := t.pages[t.logIssued]
			idx := t.logIssued
			t.logIssued++
			st.raiseWater(p.slot)
			e.rr = (e.rr + i + 1) % n
			e.outstanding++
			e.stats.LogAppends++
			return IO{Kind: IOLog, LPN: e.logSlotLPN(p.slot), Data: content.Make(p.recFP), t: t, page: idx}, true
		}
		if t.logAcked == len(t.pages) && !t.committed {
			t.committed = true // commit record issued
			st.raiseWater(t.commitSlot)
			e.rr = (e.rr + i + 1) % n
			e.outstanding++
			e.stats.LogAppends++
			return IO{Kind: IOCommit, LPN: e.logSlotLPN(t.commitSlot), Data: content.Make(t.commitFP), t: t}, true
		}
		// This stream is waiting on log ACKs or its commit barrier; give
		// the next stream the slot.
	}
	// 5. Open a checkpoint once the whole pipeline is quiet. A partial
	// group still waiting for its barrier is flushed and applied FIRST:
	// the truncation may only reuse log slots of transactions whose home
	// writes have landed, or a cut after the checkpoint could lose data
	// the application was promised (and the oracle would misjudge). Every
	// stream due for truncation rides the same quiesce.
	if ckptPending {
		if e.outstanding > 0 {
			return IO{}, false
		}
		if len(e.waiters) > 0 {
			cover := e.waiters
			e.waiters = nil
			e.inFlush = true
			e.outstanding++
			e.stats.Flushes++
			return IO{Kind: IOFlush, cover: cover}, true
		}
		e.inFlush = true
		e.outstanding++
		e.stats.Flushes++
		return IO{Kind: IOFlush, ckpt: true}, true
	}
	return IO{}, false // every stream is waiting on completions
}

// Done reports the completion of an IO previously returned by Next. err
// is the host-visible outcome; the engine advances its state machine and
// (for barriers) acknowledges covered commits. Every error path leaves
// the engine issuable — an unacknowledged transaction aborts out of the
// pipeline, a failed home write is retried — so a transient failure
// (host-queue rejection, timeout) can never wedge the closed loop; a
// fault's errors are swept up by FinishRecovery.
func (e *Engine) Done(io IO, err error) {
	e.outstanding--
	switch io.Kind {
	case IOLog:
		t := io.t
		if err != nil {
			e.abort(t)
			return
		}
		t.logAcked++
	case IOCommit:
		t := io.t
		if err != nil {
			e.abort(t)
			return
		}
		switch e.cfg.Barrier {
		case NoFlush:
			e.ack(t)
			e.streams[t.stream].cur = nil
		case FlushPerCommit:
			// Coalesce with a flush already wanted by another stream's
			// commit: one barrier covers every commit that reached the
			// device before it was issued.
			e.flushWanted = true
			e.flushCover = append(e.flushCover, t)
		case GroupCommit:
			e.waiters = append(e.waiters, t)
			e.streams[t.stream].cur = nil
			if len(e.waiters) >= e.cfg.GroupEvery {
				e.flushWanted = true
				// Append, never assign: with enough streams a second batch
				// can fill before the first batch's flush is even issued,
				// and overwriting the cover would strand that batch
				// committed-but-unacked forever.
				e.flushCover = append(e.flushCover, e.waiters...)
				e.waiters = nil
			}
		}
	case IOFlush:
		e.inFlush = false
		if err != nil {
			// The barrier failed: nothing it covered may be acknowledged.
			// The covered transactions abort (they stay in the ledger,
			// unacknowledged — no durability promise was made); a failed
			// checkpoint flush leaves ckptDue set and is retried.
			for _, t := range io.cover {
				e.abort(t)
			}
			return
		}
		for _, t := range io.cover {
			if !t.aborted {
				e.ack(t)
			}
			if st := e.streams[t.stream]; st.cur == t {
				st.cur = nil
			}
		}
		if io.ckpt {
			for _, st := range e.streams {
				if st.ckptDue {
					e.truncate(st)
					st.ckptRecDue = true
					st.ckptDue = false
					e.stats.Checkpoints++
				}
			}
		}
	case IOCheckpoint:
		// Best effort: a lost checkpoint record costs nothing — the ledger
		// it would describe was already retired by the flush before it.
	case IOHome:
		t := io.t
		if err != nil {
			// The page must eventually reach home or the transaction can
			// never retire (a checkpoint would reuse its redo slots).
			e.homeRetry = append(e.homeRetry, homeRef{t: t, page: io.page})
			return
		}
		t.homeAcked++
	}
}

// abort takes an unacknowledged transaction out of the pipeline after an
// IO error. It stays in the ledger (the oracle counts it as in-flight at
// the cut); acknowledged transactions are never aborted.
func (e *Engine) abort(t *Txn) {
	if t.acked {
		return
	}
	t.aborted = true
	e.aborts++
	e.tele.sc.Instant(e.k.Now(), obs.KindTxn, "abort", int64(t.id))
	if st := e.streams[t.stream]; st.cur == t {
		st.cur = nil
	}
}

// ack marks t durable from the application's point of view and queues its
// home writes. The global acknowledgement index records the order
// durability promises were made in — the order the oracle judges
// out-of-order durability against, across all streams.
func (e *Engine) ack(t *Txn) {
	if t.acked {
		return
	}
	t.acked = true
	t.ackedAt = e.k.Now()
	t.ackIdx = e.ackSeq
	e.ackSeq++
	e.stats.Committed++
	lat := t.ackedAt.Sub(t.startedAt)
	e.tele.commitLat.ObserveDuration(lat)
	e.tele.sc.Span(t.startedAt, lat, obs.KindTxn, "commit", int64(t.id))
	e.homeQ = append(e.homeQ, t)
	st := e.streams[t.stream]
	st.sinceCkpt++
	if st.sinceCkpt >= e.cfg.CheckpointEvery {
		st.ckptDue = true
	}
}

// truncate retires every fully-durable ledger transaction of st's stream
// and opens a new partition generation. It runs only behind a completed
// flush with an idle pipeline, so everything in the ledger that was
// acknowledged is on media.
func (e *Engine) truncate(st *wstream) {
	var keep []*Txn
	for _, t := range e.ledger {
		if t.stream == st.id && t.acked && t.homeAcked == len(t.pages) {
			e.stats.Retired++
			continue
		}
		keep = append(keep, t)
	}
	e.ledger = keep
	st.gen++
	st.cursor = 0
	st.highWater = 0
	st.sinceCkpt = 0
}
