package array

import (
	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
)

// --- RAID-1: mirroring ---
//
// A write goes to every mirror on the coded path's records (submitEach);
// a read goes to one mirror at a time.

// nextReplica rotates reads across the ready mirrors; with no mirror
// ready it still rotates so error latency comes from a real member.
func (a *Array) nextReplica() int {
	n := len(a.members)
	for tries := 0; tries < n; tries++ {
		i := a.rrNext % n
		a.rrNext++
		if a.members[i].Ready() {
			return i
		}
	}
	return a.rrNext % n
}

// mirrorRead serves the read from one replica, redirecting to the next on
// error until every mirror has been tried.
func (a *Array) mirrorRead(lpn addr.LPN, pages, member, tried int, done func(error, content.Data)) {
	a.memberSubmit(member, blockdev.OpRead, lpn, pages, content.Data{}, a.call(func(err error, res content.Data) {
		if err == nil {
			done(nil, res)
			return
		}
		if tried+1 < len(a.members) {
			a.stats.RedirectedReads++
			a.mirrorRead(lpn, pages, (member+1)%len(a.members), tried+1, done)
			return
		}
		done(err, content.Data{})
	}))
}
