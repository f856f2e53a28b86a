package array

import (
	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/obs"
)

// --- RAID-5 / RAID-6 / RS: rotating parity with read-modify-write ---
//
// Every parity level is an m+k code: each stripe carries k parity shards
// on a rotating run of members, small writes delta-update every parity
// under the stripe lock, and a degraded read reconstructs the missing
// chunk from any m surviving shards via the GF(256) code. RAID-5 is the
// k = 1 point, whose all-ones parity row is plain XOR. A fault between
// the 1+k write acknowledgements leaves the stripe internally
// inconsistent whenever a proper, non-empty subset of the writes landed:
// the write hole, which for RAID-5 is "exactly one of data and parity".
//
// The path allocates only payloads. A host request is one pooled
// codedOp, each of its chunk ranges one pooled chunkOp (which also
// waits in the stripe lock's intrusive FIFO), and each member IO one
// pooled memberCall; every record goes back on its free list before its
// continuation runs. What remains allocated per cycle is the k new
// parity buffers, the members' own read results and, for a read that
// spans chunks, one result slice. Reconstruction and flushes, a few per
// fault cycle, keep their closures.

// codedOp is one host request on the coded path: it counts its chunk
// ranges down and answers the host once the last one retires.
type codedOp struct {
	op    blockdev.Op
	done  func(error, content.Data)
	parts int
	err   error
	// A read spanning chunks gathers into result; a one-chunk read hands
	// the member's payload (res) straight through unless it had to be
	// reconstructed.
	result []content.Fingerprint
	res    content.Data
}

// chunkOp is one chunk range of a coded request: a direct read, or one
// parity read-modify-write cycle. parity carries the k old parities
// after the read phase and is overwritten in place with the new ones;
// its backing array stays with the record across reuses.
type chunkOp struct {
	req     *codedOp
	cr      chunkRange
	newData content.Data
	oldData content.Data
	parity  []content.Data

	pending, acked              int
	readErr, dataErr, parityErr error

	next *chunkOp // stripe-lock FIFO link
}

// stripeQueue is the FIFO of RMW cycles waiting on one locked stripe.
type stripeQueue struct{ head, tail *chunkOp }

func (a *Array) submitCoded(op blockdev.Op, lpn addr.LPN, pages int, data content.Data, done func(error, content.Data)) {
	parts := a.chunkCount(lpn, pages)
	if parts == 0 {
		return // no chunk to answer; the block layer never sends an empty IO
	}
	req, _ := a.ops.Get()
	req.op, req.done, req.parts = op, done, parts
	if op == blockdev.OpRead && parts > 1 {
		req.result = make([]content.Fingerprint, pages)
	}
	for off := 0; off < pages; {
		ch, _ := a.chunks.Get()
		ch.req, ch.cr = req, a.chunkAt(lpn, off, pages)
		off += ch.cr.n
		if op == blockdev.OpRead {
			a.memberSubmit(ch.cr.member, blockdev.OpRead, ch.cr.mlpn, ch.cr.n, content.Data{}, a.chunkCall(ch, roleRead, 0))
			continue
		}
		ch.newData = data.Slice(ch.cr.off, ch.cr.n)
		a.lockStripe(ch)
	}
}

// partDone retires one chunk range of req; the last one answers the host.
func (a *Array) partDone(req *codedOp, err error) {
	if err != nil && req.err == nil {
		req.err = err
	}
	if req.parts--; req.parts > 0 {
		return
	}
	op, done, err, result, res := req.op, req.done, req.err, req.result, req.res
	*req = codedOp{}
	a.ops.Put(req)
	a.countHost(op, err)
	switch {
	case err != nil:
		done(err, content.Data{})
	case result != nil:
		done(nil, content.Wrap(result))
	default:
		done(nil, res) // a write's res is empty
	}
}

// chunkRead takes a direct data-member read's answer, falling back to
// reconstruction from the surviving shards on error.
func (a *Array) chunkRead(ch *chunkOp, err error, res content.Data) {
	req, cr := ch.req, ch.cr
	a.freeChunk(ch)
	if err == nil {
		if req.result == nil {
			req.res = res
		} else {
			for i := 0; i < cr.n; i++ {
				req.result[cr.off+i] = res.Page(i)
			}
		}
		a.partDone(req, nil)
		return
	}
	if req.result == nil {
		req.result = make([]content.Fingerprint, cr.n)
	}
	a.codeReconstruct(cr, req.result, func(err error) { a.partDone(req, err) })
}

// codeReconstruct recovers cr's pages from the same rows on the other
// members: every shard that answers contributes, and the code solves for
// the missing chunk as long as at least m shards survive. Up to k-1
// sibling failures on top of the unreadable data member still succeed;
// beyond that the read fails (the stripe has more than k erasures).
func (a *Array) codeReconstruct(cr chunkRange, result []content.Fingerprint, done func(error)) {
	a.stats.Reconstructions++
	a.tele.reconstructions.Inc()
	a.tele.sc.Instant(a.k.Now(), obs.KindInstant, "reconstruction", int64(cr.mlpn))
	n := len(a.members)
	rows := make([]content.Data, n)
	ok := make([]bool, n)
	parts := 0
	var firstErr error
	finish := func() {
		m := n - a.parityCount()
		shards := make([]content.Fingerprint, n)
		present := make([]bool, n)
		survivors := 0
		for mm := 0; mm < n; mm++ {
			if ok[mm] {
				survivors++
			}
		}
		if survivors < m {
			done(firstErr)
			return
		}
		target := a.slotOf(cr.parity, cr.member)
		for i := 0; i < cr.n; i++ {
			for mm := 0; mm < n; mm++ {
				if slot := a.slotOf(cr.parity, mm); ok[mm] {
					shards[slot] = rows[mm].Page(i)
					present[slot] = true
				} else {
					shards[slot] = 0
					present[slot] = false
				}
			}
			if err := a.code.Reconstruct(shards, present); err != nil {
				done(err)
				return
			}
			result[cr.off+i] = shards[target]
		}
		done(nil)
	}
	for mm := range a.members {
		if mm == cr.member {
			continue
		}
		mm := mm
		parts++
		a.memberSubmit(mm, blockdev.OpRead, cr.mlpn, cr.n, content.Data{}, a.call(func(err error, res content.Data) {
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				rows[mm] = res
				ok[mm] = true
			}
			parts--
			if parts == 0 {
				finish()
			}
		}))
	}
}

// lockStripe serializes parity read-modify-write cycles per stripe: ch
// starts at once on a free stripe and otherwise queues behind the
// stripe's earlier cycles. A present map entry marks the stripe busy.
func (a *Array) lockStripe(ch *chunkOp) {
	s := ch.cr.stripe
	if q, busy := a.stripeLocks[s]; busy {
		if q.tail == nil {
			q.head = ch
		} else {
			q.tail.next = ch
		}
		q.tail = ch
		a.stripeLocks[s] = q
		return
	}
	a.stripeLocks[s] = stripeQueue{}
	a.codeRMW(ch)
}

// unlockStripe hands the stripe to its next queued cycle, or frees it.
func (a *Array) unlockStripe(s int64) {
	q, ok := a.stripeLocks[s]
	if !ok {
		return
	}
	next := q.head
	if next == nil {
		delete(a.stripeLocks, s)
		return
	}
	q.head, next.next = next.next, nil
	if q.head == nil {
		q.tail = nil
	}
	a.stripeLocks[s] = q
	a.codeRMW(next)
}

// codeRMW performs the small-write cycle on one chunk range once its
// stripe is locked: read the old data and all k old parities, delta
// every parity with the coded data delta, then write the data and all
// parities concurrently. A fault landing between the acknowledgements is
// the write hole; it is counted when a proper, non-empty subset of the
// 1+k writes lands.
func (a *Array) codeRMW(ch *chunkOp) {
	a.stats.ParityRMWs++
	a.tele.parityRMWs.Inc()
	kp := a.parityCount()
	if cap(ch.parity) < kp {
		ch.parity = make([]content.Data, kp)
	}
	ch.parity = ch.parity[:kp]
	ch.pending = 1 + kp
	cr := ch.cr
	a.memberSubmit(cr.member, blockdev.OpRead, cr.mlpn, cr.n, content.Data{}, a.chunkCall(ch, roleOldData, 0))
	for j := 0; j < kp; j++ {
		a.memberSubmit(a.parityMember(cr.parity, j), blockdev.OpRead, cr.mlpn, cr.n, content.Data{}, a.chunkCall(ch, roleOldParity, j))
	}
}

func (a *Array) rmwReadDone(ch *chunkOp, err error) {
	if err != nil && ch.readErr == nil {
		ch.readErr = err
	}
	if ch.pending--; ch.pending > 0 {
		return
	}
	if ch.readErr != nil {
		// Nothing was written: the stripe is untouched, no hole.
		a.rmwDone(ch, ch.readErr)
		return
	}
	cr := ch.cr
	for j, old := range ch.parity {
		coeff := a.code.ParityCoeff(j, cr.didx)
		p := make([]content.Fingerprint, cr.n)
		for i := range p {
			delta := uint64(ch.oldData.Page(i)) ^ uint64(ch.newData.Page(i))
			p[i] = content.Fingerprint(uint64(old.Page(i)) ^ gfMulFP(coeff, delta))
		}
		ch.parity[j] = content.Wrap(p)
	}
	ch.pending = 1 + len(ch.parity)
	a.memberSubmit(cr.member, blockdev.OpWrite, cr.mlpn, cr.n, ch.newData, a.chunkCall(ch, roleNewData, 0))
	for j, p := range ch.parity {
		a.memberSubmit(a.parityMember(cr.parity, j), blockdev.OpWrite, cr.mlpn, cr.n, p, a.chunkCall(ch, roleNewParity, j))
	}
}

func (a *Array) rmwWriteDone(ch *chunkOp, err error) {
	if err == nil {
		ch.acked++
	}
	if ch.pending--; ch.pending > 0 {
		return
	}
	if ch.acked > 0 && ch.acked < 1+len(ch.parity) {
		a.stats.WriteHoles++
		a.tele.writeHoles.Inc()
		a.tele.sc.Instant(a.k.Now(), obs.KindInstant, "write_hole", int64(ch.cr.mlpn))
	}
	if ch.dataErr != nil {
		a.rmwDone(ch, ch.dataErr)
	} else {
		a.rmwDone(ch, ch.parityErr)
	}
}

// rmwDone ends a cycle: the record goes back to the pool, the stripe
// passes to its next waiter, and only then does the chunk retire.
func (a *Array) rmwDone(ch *chunkOp, err error) {
	req, s := ch.req, ch.cr.stripe
	a.freeChunk(ch)
	a.unlockStripe(s)
	a.partDone(req, err)
}

func (a *Array) freeChunk(ch *chunkOp) {
	clear(ch.parity)
	*ch = chunkOp{parity: ch.parity[:0]}
	a.chunks.Put(ch)
}

// callRole names what a member IO is for within its chunk range.
type callRole uint8

const (
	roleRead      callRole = iota // direct data read of a host read
	roleOldData                   // RMW: old data read
	roleOldParity                 // RMW: old parity j read
	roleNewData                   // RMW: new data write
	roleNewParity                 // RMW: new parity j write
)

// chunkCall aims a pooled member-completion record at chunk ch.
func (a *Array) chunkCall(ch *chunkOp, role callRole, j int) *memberCall {
	c := a.newCall()
	c.chunk, c.role, c.j = ch, role, j
	return c
}

// chunkDone routes one member completion to its chunk's state machine.
func (a *Array) chunkDone(ch *chunkOp, role callRole, j int, err error, res content.Data) {
	switch role {
	case roleRead:
		a.chunkRead(ch, err, res)
	case roleOldData:
		ch.oldData = res
		a.rmwReadDone(ch, err)
	case roleOldParity:
		ch.parity[j] = res
		a.rmwReadDone(ch, err)
	case roleNewData:
		ch.dataErr = err
		a.rmwWriteDone(ch, err)
	case roleNewParity:
		if err != nil && ch.parityErr == nil {
			ch.parityErr = err
		}
		a.rmwWriteDone(ch, err)
	}
}
