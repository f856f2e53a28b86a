package array

import (
	"slices"

	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/obs"
)

// --- RAID-0 / RAID-5 / RAID-6 / RS: the striped m+k code ---
//
// Every striped level is an m+k code: each stripe carries k parity
// shards on a rotating run of members, small writes delta-update every
// parity under the stripe lock, and a degraded read reconstructs the
// missing chunk from any m surviving shards via the GF(256) code. RAID-5
// is the k = 1 point, whose all-ones parity row is plain XOR. RAID-0 is
// the k = 0 point: it has no code, so a write goes straight to its
// member with no lock and a failed read fails its part. A cut during a
// cycle can leave a row whose parity no longer encodes its data: the
// write hole. It shows on the members' media, not in their
// acknowledgements, because a cut on the shared supply fails every
// member alike and a volatile cache acknowledges before its media hold
// the data (TestCutLeavesMembersDisagreeingOnMedia). Stats.WriteHoles
// counts only a partial acknowledgement set, some but not all of the
// 1+k writes. The cached level's reads ride the same records (see
// cachedRead), and so does every whole-member IO: a RAID-0 chunk write,
// a RAID-1 write and a flush (see submitEach).
//
// The path allocates nothing in steady state. A host request is one
// pooled codedOp, each of its chunk ranges one pooled chunkOp (which
// also waits in the stripe lock's intrusive FIFO), and each member IO
// one pooled memberCall. Members lend their read results (see
// blockdev.Device), so every page the path keeps past a member's done
// lands in a buffer its record owns and keeps across reuses: a host
// read gathers into its codedOp's, and an RMW cycle reads old data and
// old parities into its chunkOp's and computes the new parities there
// in place. The coded path lends its own read result in turn, so a
// codedOp returns to its pool only after the host's done has returned.
// Reconstruction, a few per fault cycle, keeps its closures and copies
// the rows it collects.

// codedOp is one host request on the coded path: it counts its chunk
// ranges down and answers the host once the last one retires. A read
// gathers its chunks, direct or reconstructed, into buf, which it lends
// to done.
type codedOp struct {
	op    blockdev.Op
	done  func(error, content.Data)
	parts int
	err   error
	buf   []content.Fingerprint
}

// chunkOp is one chunk range of a coded request: a direct read, one
// parity read-modify-write cycle, or one whole-member IO. buf holds the
// cycle's 1+k shards of n pages each: the old data, then the k old
// parities, which the write phase overwrites in place with the new ones.
type chunkOp struct {
	req     *codedOp
	cr      chunkRange
	newData content.Data
	buf     []content.Fingerprint

	pending, acked              int
	readErr, dataErr, parityErr error

	next *chunkOp // stripe-lock FIFO link; a cached read's run list before it submits
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
	if op == blockdev.OpRead {
		req.buf = slices.Grow(req.buf[:0], pages)[:pages]
	}
	for off := 0; off < pages; {
		ch, _ := a.chunks.Get()
		ch.req, ch.cr = req, a.chunkAt(lpn, off, pages)
		off += ch.cr.n
		if op == blockdev.OpRead {
			a.memberSubmit(ch.cr.member, blockdev.OpRead, ch.cr.mlpn, ch.cr.n, content.Data{}, a.chunkCall(ch, roleRead, 0))
			continue
		}
		if a.code == nil {
			a.memberSubmit(ch.cr.member, blockdev.OpWrite, ch.cr.mlpn, ch.cr.n, data.Slice(ch.cr.off, ch.cr.n), a.chunkCall(ch, roleWhole, 0))
			continue
		}
		ch.newData = data.Slice(ch.cr.off, ch.cr.n)
		a.lockStripe(ch)
	}
}

// submitEach sends the same IO to every member, one chunkOp per member
// under one codedOp: a flush, or a RAID-1 write to every mirror. The
// host hears once every member has answered, with the first error.
func (a *Array) submitEach(op blockdev.Op, lpn addr.LPN, pages int, data content.Data, done func(error, content.Data)) {
	req, _ := a.ops.Get()
	req.op, req.done, req.parts = op, done, len(a.members)
	for i := range a.members {
		ch, _ := a.chunks.Get()
		ch.req = req
		a.memberSubmit(i, op, lpn, pages, data, a.chunkCall(ch, roleWhole, 0))
	}
}

// partDone retires one chunk range of req; the last one answers the host
// and only then returns req, and the result it lent, to the pool.
func (a *Array) partDone(req *codedOp, err error) {
	if err != nil && req.err == nil {
		req.err = err
	}
	if req.parts--; req.parts > 0 {
		return
	}
	a.countHost(req.op, req.err)
	switch {
	case req.err != nil:
		req.done(req.err, content.Data{})
	case req.op == blockdev.OpRead:
		req.done(nil, content.Wrap(req.buf))
	default:
		req.done(nil, content.Data{})
	}
	*req = codedOp{buf: req.buf[:0]}
	a.ops.Put(req)
}

// chunkRead takes a direct member read's answer, falling back to
// reconstruction from the surviving shards on error where there is a
// code to reconstruct with.
func (a *Array) chunkRead(ch *chunkOp, err error, res content.Data) {
	req, cr := ch.req, ch.cr
	a.freeChunk(ch)
	switch {
	case err == nil:
		res.CopyTo(req.buf[cr.off : cr.off+cr.n])
		a.partDone(req, nil)
	case a.code == nil:
		a.partDone(req, err)
	default:
		a.codeReconstruct(cr, req.buf, func(err error) { a.partDone(req, err) })
	}
}

// codeReconstruct recovers cr's pages from the same rows on the other
// members: every shard that answers contributes, and the code solves for
// the missing chunk as long as at least m shards survive. Up to k-1
// sibling failures on top of the unreadable data member still succeed;
// beyond that the read fails (the stripe has more than k erasures).
func (a *Array) codeReconstruct(cr chunkRange, result []content.Fingerprint, done func(error)) {
	a.stats.Reconstructions++
	a.tele.Instant(a.k.Now(), obs.KindInstant, "reconstruction", int64(cr.mlpn))
	n := len(a.members)
	rows := make([][]content.Fingerprint, n)
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
					shards[slot] = rows[mm][i]
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
				// The rows outlive this loan: copy them.
				rows[mm] = make([]content.Fingerprint, cr.n)
				res.CopyTo(rows[mm])
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
// parities concurrently. A cut during the cycle can leave the row's
// parity stale on media; WriteHoles counts only a proper, non-empty
// subset of the 1+k writes acknowledged.
func (a *Array) codeRMW(ch *chunkOp) {
	a.stats.ParityRMWs++
	kp := a.parityCount()
	cr := ch.cr
	ch.buf = slices.Grow(ch.buf[:0], (1+kp)*cr.n)[:(1+kp)*cr.n]
	ch.pending = 1 + kp
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
	cr, kp := ch.cr, a.parityCount()
	old := ch.shard(0)
	for j := 0; j < kp; j++ {
		coeff := a.code.ParityCoeff(j, cr.didx)
		p := ch.shard(1 + j)
		for i := range p {
			delta := uint64(old[i]) ^ uint64(ch.newData.Page(i))
			p[i] ^= content.Fingerprint(gfMulFP(coeff, delta))
		}
	}
	ch.pending = 1 + kp
	a.memberSubmit(cr.member, blockdev.OpWrite, cr.mlpn, cr.n, ch.newData, a.chunkCall(ch, roleNewData, 0))
	for j := 0; j < kp; j++ {
		a.memberSubmit(a.parityMember(cr.parity, j), blockdev.OpWrite, cr.mlpn, cr.n, content.Wrap(ch.shard(1+j)), a.chunkCall(ch, roleNewParity, j))
	}
}

// shard returns the cycle's shard s in buf: 0 is the data chunk, 1+j
// parity j.
func (ch *chunkOp) shard(s int) []content.Fingerprint {
	n := ch.cr.n
	return ch.buf[s*n : (s+1)*n]
}

func (a *Array) rmwWriteDone(ch *chunkOp, err error) {
	if err == nil {
		ch.acked++
	}
	if ch.pending--; ch.pending > 0 {
		return
	}
	if ch.acked > 0 && ch.acked < 1+a.parityCount() {
		a.stats.WriteHoles++
		a.tele.Instant(a.k.Now(), obs.KindInstant, "write_hole", int64(ch.cr.mlpn))
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
	*ch = chunkOp{buf: ch.buf[:0]}
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
	roleWhole                     // a member IO that is a part on its own: RAID-0 write, mirror write, flush
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
		res.CopyTo(ch.shard(0))
		a.rmwReadDone(ch, err)
	case roleOldParity:
		res.CopyTo(ch.shard(1 + j))
		a.rmwReadDone(ch, err)
	case roleNewData:
		ch.dataErr = err
		a.rmwWriteDone(ch, err)
	case roleNewParity:
		if err != nil && ch.parityErr == nil {
			ch.parityErr = err
		}
		a.rmwWriteDone(ch, err)
	case roleWhole:
		req := ch.req
		a.freeChunk(ch)
		a.partDone(req, err)
	}
}
