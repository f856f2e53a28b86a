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

func (a *Array) submitCoded(op blockdev.Op, lpn addr.LPN, pages int, data content.Data, done func(error, content.Data)) {
	chunks := a.chunksOf(lpn, pages)
	result := make([]content.Fingerprint, pages)
	parts := len(chunks)
	var firstErr error
	finishChunk := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		parts--
		if parts == 0 {
			a.finishStriped(op, pages, result, firstErr, done)
		}
	}
	for _, cr := range chunks {
		cr := cr
		if op == blockdev.OpRead {
			a.codeRead(cr, result, finishChunk)
		} else {
			a.lockStripe(cr.stripe, func(release func()) {
				a.codeRMW(cr, data, func(err error) {
					release()
					finishChunk(err)
				})
			})
		}
	}
}

// codeRead reads the data member directly and falls back to
// reconstruction from the surviving shards on error.
func (a *Array) codeRead(cr chunkRange, result []content.Fingerprint, done func(error)) {
	a.memberSubmit(cr.member, blockdev.OpRead, cr.mlpn, cr.n, content.Data{}, func(err error, res content.Data) {
		if err == nil {
			for i := 0; i < cr.n; i++ {
				result[cr.off+i] = res.Page(i)
			}
			done(nil)
			return
		}
		a.codeReconstruct(cr, result, done)
	})
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
		a.memberSubmit(mm, blockdev.OpRead, cr.mlpn, cr.n, content.Data{}, func(err error, res content.Data) {
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
		})
	}
}

// rmw is one parity read-modify-write cycle. A single allocation holds
// everything the member callbacks share: the phase counter, the errors,
// and the parity slots, which carry the k old parities after the read
// phase and are overwritten in place with the new ones.
type rmw struct {
	a       *Array
	cr      chunkRange
	newData content.Data
	done    func(error)

	oldData content.Data
	parity  []content.Data
	slots   [2]content.Data // backs parity for RAID-5 and RAID-6

	pending, acked              int
	readErr, dataErr, parityErr error
}

// codeRMW performs the small-write cycle on one chunk range: read the old
// data and all k old parities, delta every parity with the coded data
// delta, then write the data and all parities concurrently. A fault
// landing between the acknowledgements is the write hole; it is counted
// when a proper, non-empty subset of the 1+k writes lands.
func (a *Array) codeRMW(cr chunkRange, data content.Data, done func(error)) {
	a.stats.ParityRMWs++
	a.tele.parityRMWs.Inc()
	kp := a.parityCount()
	st := &rmw{a: a, cr: cr, newData: data.Slice(cr.off, cr.n), done: done, pending: 1 + kp}
	if kp <= len(st.slots) {
		st.parity = st.slots[:kp]
	} else {
		st.parity = make([]content.Data, kp)
	}
	a.memberSubmit(cr.member, blockdev.OpRead, cr.mlpn, cr.n, content.Data{}, func(err error, res content.Data) {
		st.oldData = res
		st.readDone(err)
	})
	for j := 0; j < kp; j++ {
		a.memberSubmit(a.parityMember(cr.parity, j), blockdev.OpRead, cr.mlpn, cr.n, content.Data{}, func(err error, res content.Data) {
			st.parity[j] = res
			st.readDone(err)
		})
	}
}

func (st *rmw) readDone(err error) {
	if err != nil && st.readErr == nil {
		st.readErr = err
	}
	if st.pending--; st.pending > 0 {
		return
	}
	if st.readErr != nil {
		// Nothing was written: the stripe is untouched, no hole.
		st.done(st.readErr)
		return
	}
	a, cr := st.a, st.cr
	for j, old := range st.parity {
		coeff := a.code.ParityCoeff(j, cr.didx)
		st.parity[j] = content.Gather(cr.n, func(i int) content.Fingerprint {
			delta := uint64(st.oldData.Page(i)) ^ uint64(st.newData.Page(i))
			return content.Fingerprint(uint64(old.Page(i)) ^ gfMulFP(coeff, delta))
		})
	}
	st.pending = 1 + len(st.parity)
	a.memberSubmit(cr.member, blockdev.OpWrite, cr.mlpn, cr.n, st.newData, st.dataWritten)
	parityWritten := st.parityWritten
	for j, p := range st.parity {
		a.memberSubmit(a.parityMember(cr.parity, j), blockdev.OpWrite, cr.mlpn, cr.n, p, parityWritten)
	}
}

func (st *rmw) dataWritten(err error, _ content.Data) {
	st.dataErr = err
	st.writeDone(err)
}

func (st *rmw) parityWritten(err error, _ content.Data) {
	if err != nil && st.parityErr == nil {
		st.parityErr = err
	}
	st.writeDone(err)
}

func (st *rmw) writeDone(err error) {
	if err == nil {
		st.acked++
	}
	if st.pending--; st.pending > 0 {
		return
	}
	if st.acked > 0 && st.acked < 1+len(st.parity) {
		a := st.a
		a.stats.WriteHoles++
		a.tele.writeHoles.Inc()
		a.tele.sc.Instant(a.k.Now(), obs.KindInstant, "write_hole", int64(st.cr.mlpn))
	}
	if st.dataErr != nil {
		st.done(st.dataErr)
	} else {
		st.done(st.parityErr)
	}
}
