// Package pool holds the free list the simulator's hot paths recycle
// their records through: the experiment runner's issue and control-read
// records, analyzer packets, SSD commands and channel items, block-layer
// requests and sub-calls, array stripe ops and member calls, fleet
// service and rebuild records. A record is
// built once, with any callback closure it caches, and then handed out
// and returned for the rest of the run, so steady-state IO allocates
// nothing. Lists are single-threaded, like the kernel that drives them.
package pool

// FreeList is a LIFO of pooled records; the zero value is ready. LIFO
// order hands out the record returned last, which is the one most likely
// still in cache. made counts the records ever built, so a test can check
// that every one came back.
type FreeList[T any] struct {
	free []*T
	made int
}

// Get pops a record, or builds a zero one and reports it fresh so the
// caller can set up its cached closures.
func (l *FreeList[T]) Get() (*T, bool) {
	if n := len(l.free); n > 0 {
		r := l.free[n-1]
		l.free = l.free[:n-1]
		return r, false
	}
	l.made++
	return new(T), true
}

// Put returns a record to the list.
func (l *FreeList[T]) Put(r *T) { l.free = append(l.free, r) }

// InUse is the number of records built and not yet returned.
func (l *FreeList[T]) InUse() int { return l.made - len(l.free) }
