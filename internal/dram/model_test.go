package dram

import (
	"math/rand"
	"slices"
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/content"
)

// refCache is a second, deliberately naive implementation of the cache
// rules on plain slices: entries are found by linear search and both
// lists hold page numbers, front first. The differential test below runs
// it in lockstep with the arena cache.
type refCache struct {
	capPages int
	ents     []refEntry
	dirtyQ   []addr.LPN // FIFO, front first
	clean    []addr.LPN // most recent first
	flushing int
	seq      uint64
	stats    Stats
}

type refEntry struct {
	lpn     addr.LPN
	fp      content.Fingerprint
	seq     uint64
	dirty   bool
	flights int
	list    string // "", "dirty" or "clean"
}

func (r *refCache) find(lpn addr.LPN) *refEntry {
	for i := range r.ents {
		if r.ents[i].lpn == lpn {
			return &r.ents[i]
		}
	}
	return nil
}

func without(l []addr.LPN, lpn addr.LPN) []addr.LPN {
	return slices.DeleteFunc(l, func(x addr.LPN) bool { return x == lpn })
}

func (r *refCache) unlist(e *refEntry) {
	switch e.list {
	case "dirty":
		r.dirtyQ = without(r.dirtyQ, e.lpn)
	case "clean":
		r.clean = without(r.clean, e.lpn)
	}
	e.list = ""
}

func (r *refCache) drop(lpn addr.LPN) {
	r.ents = slices.DeleteFunc(r.ents, func(e refEntry) bool { return e.lpn == lpn })
}

func (r *refCache) Write(lpn addr.LPN, fp content.Fingerprint) bool {
	if e := r.find(lpn); e != nil {
		r.seq++
		e.fp, e.seq = fp, r.seq
		switch {
		case e.flights > 0:
			e.dirty = true
			if e.list == "" {
				e.list = "dirty"
				r.dirtyQ = append(r.dirtyQ, lpn)
			}
			r.stats.ReDirties++
		case e.dirty:
		default:
			r.unlist(e)
			e.dirty, e.list = true, "dirty"
			r.dirtyQ = append(r.dirtyQ, lpn)
		}
		r.stats.Inserts++
		return true
	}
	if len(r.ents) >= r.capPages {
		if len(r.clean) == 0 {
			return false
		}
		victim := r.clean[len(r.clean)-1]
		r.clean = r.clean[:len(r.clean)-1]
		r.drop(victim)
		r.stats.Evictions++
	}
	r.seq++
	r.ents = append(r.ents, refEntry{lpn: lpn, fp: fp, seq: r.seq, dirty: true, list: "dirty"})
	r.dirtyQ = append(r.dirtyQ, lpn)
	r.stats.Inserts++
	return true
}

func (r *refCache) Read(lpn addr.LPN) (content.Fingerprint, bool) {
	e := r.find(lpn)
	if e == nil {
		r.stats.Misses++
		return content.Zero, false
	}
	if !e.dirty && e.flights == 0 && e.list == "clean" {
		r.clean = append([]addr.LPN{lpn}, without(r.clean, lpn)...)
	}
	r.stats.Hits++
	return e.fp, true
}

func (r *refCache) PopDirty(max int) []Entry {
	var out []Entry
	for len(out) < max && len(r.dirtyQ) > 0 {
		e := r.find(r.dirtyQ[0])
		r.dirtyQ = r.dirtyQ[1:]
		e.list, e.dirty = "", false
		if e.flights == 0 {
			r.flushing++
		}
		e.flights++
		out = append(out, Entry{LPN: e.lpn, FP: e.fp, Seq: e.seq})
	}
	return out
}

// retire ends one flight of lpn and reports the entry when seq is still
// its newest data.
func (r *refCache) retire(lpn addr.LPN, seq uint64) *refEntry {
	e := r.find(lpn)
	if e == nil {
		return nil
	}
	if e.flights > 0 {
		e.flights--
		if e.flights == 0 {
			r.flushing--
		}
	}
	if e.seq != seq {
		return nil
	}
	return e
}

func (r *refCache) FlushDone(lpn addr.LPN, seq uint64) {
	e := r.retire(lpn, seq)
	if e == nil {
		return
	}
	e.dirty = false
	if e.list == "" {
		e.list = "clean"
		r.clean = append([]addr.LPN{lpn}, r.clean...)
	}
	r.stats.Flushes++
}

func (r *refCache) FlushFailed(lpn addr.LPN, seq uint64) {
	e := r.retire(lpn, seq)
	if e == nil {
		return
	}
	e.dirty = true
	if e.list == "" {
		e.list = "dirty"
		r.dirtyQ = append([]addr.LPN{lpn}, r.dirtyQ...)
	}
}

func (r *refCache) Invalidate(lpn addr.LPN) {
	e := r.find(lpn)
	if e == nil {
		return
	}
	r.unlist(e)
	if e.flights > 0 {
		r.flushing--
	}
	r.drop(lpn)
}

func (r *refCache) DropAll() int {
	lost := 0
	for _, e := range r.ents {
		if e.dirty || e.flights > 0 {
			lost++
		}
	}
	r.ents, r.dirtyQ, r.clean, r.flushing = nil, nil, nil, 0
	r.stats.DroppedDirty += int64(lost)
	return lost
}

// TestCacheMatchesReferenceModel drives the arena cache and the reference
// model through seeded random operation sequences and compares every
// return value and every counter after each operation. Flush completions
// retire in random order, so overwrites land mid-flight and pages finish
// flushing while older flights of the same page are still out. Seeds past
// 200 use a cache larger than one arena chunk and fill it with distinct
// pages at the start and after every power loss, so list links, frees
// and the drop cross a chunk boundary and reuse the chunks kept.
func TestCacheMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 208; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capPages := 1 + rng.Intn(8)
		chunked := seed > 200
		if chunked {
			capPages = slotChunk + 1 + rng.Intn(slotChunk)
		}
		span := capPages + rng.Intn(2*capPages+2)
		c := newCache(t, capPages)
		ref := &refCache{capPages: capPages}
		fill := func() {
			for lpn := addr.LPN(0); int(lpn) < capPages; lpn++ {
				fp := content.Fingerprint(rng.Uint64() | 1)
				if got, want := c.Write(lpn, fp), ref.Write(lpn, fp); got != want {
					t.Fatalf("seed %d: fill Write(%d) = %v, model %v", seed, lpn, got, want)
				}
			}
			if len(c.chunks) < 2 {
				t.Fatalf("seed %d: %d pages fill %d arena chunk(s), want at least 2", seed, capPages, len(c.chunks))
			}
		}
		if chunked {
			fill()
		}
		var inflight []Entry
		for step := 0; step < 600; step++ {
			lpn := addr.LPN(rng.Intn(span))
			var op string
			switch k := rng.Intn(100); {
			case k < 30:
				op = "write"
				fp := content.Fingerprint(rng.Uint64() | 1)
				if got, want := c.Write(lpn, fp), ref.Write(lpn, fp); got != want {
					t.Fatalf("seed %d step %d: Write(%d) = %v, model %v", seed, step, lpn, got, want)
				}
			case k < 38 && len(inflight) > 0:
				op = "overwrite-mid-flush"
				lpn = inflight[rng.Intn(len(inflight))].LPN
				fp := content.Fingerprint(rng.Uint64() | 1)
				if got, want := c.Write(lpn, fp), ref.Write(lpn, fp); got != want {
					t.Fatalf("seed %d step %d: overwrite Write(%d) = %v, model %v", seed, step, lpn, got, want)
				}
			case k < 50:
				op = "read"
				gfp, gok := c.Read(lpn)
				wfp, wok := ref.Read(lpn)
				if gfp != wfp || gok != wok {
					t.Fatalf("seed %d step %d: Read(%d) = %x,%v, model %x,%v", seed, step, lpn, gfp, gok, wfp, wok)
				}
			case k < 62:
				op = "pop"
				max := rng.Intn(4)
				got, want := c.PopDirty(max), ref.PopDirty(max)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: PopDirty(%d) = %v, model %v", seed, step, max, got, want)
				}
				inflight = append(inflight, got...)
			case k < 80 && len(inflight) > 0:
				op = "flush-done"
				j := rng.Intn(len(inflight))
				e := inflight[j]
				inflight = slices.Delete(inflight, j, j+1)
				c.FlushDone(e.LPN, e.Seq)
				ref.FlushDone(e.LPN, e.Seq)
			case k < 88 && len(inflight) > 0:
				op = "flush-failed"
				j := rng.Intn(len(inflight))
				e := inflight[j]
				inflight = slices.Delete(inflight, j, j+1)
				c.FlushFailed(e.LPN, e.Seq)
				ref.FlushFailed(e.LPN, e.Seq)
			case k < 94:
				op = "invalidate"
				c.Invalidate(lpn)
				ref.Invalidate(lpn)
			case k < 97:
				op = "stale-flush-done"
				seq := uint64(rng.Intn(int(ref.seq) + 1))
				c.FlushDone(lpn, seq)
				ref.FlushDone(lpn, seq)
			default:
				op = "drop-all"
				if got, want := c.DropAll(), ref.DropAll(); got != want {
					t.Fatalf("seed %d step %d: DropAll = %d, model %d", seed, step, got, want)
				}
				inflight = inflight[:0]
				if chunked {
					fill()
				}
			}
			if got, want := c.Stats(), ref.stats; got != want {
				t.Fatalf("seed %d step %d (%s): Stats = %+v, model %+v", seed, step, op, got, want)
			}
			if c.Len() != len(ref.ents) || c.QueuedDirty() != len(ref.dirtyQ) ||
				c.DirtyPages() != len(ref.dirtyQ)+ref.flushing {
				t.Fatalf("seed %d step %d (%s): len/queued/dirty = %d/%d/%d, model %d/%d/%d", seed, step, op,
					c.Len(), c.QueuedDirty(), c.DirtyPages(), len(ref.ents), len(ref.dirtyQ), len(ref.dirtyQ)+ref.flushing)
			}
		}
	}
}
