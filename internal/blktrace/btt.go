package blktrace

import (
	"sort"

	"powerfail/internal/addr"
	"powerfail/internal/sim"
)

// IO is the btt-style per-IO assembly of one request's events: queueing,
// splitting and per-sub-request completion. The paper's modified
// btt extracts exactly this view so that the Analyzer can tell complete
// requests (every sub-request reached C) from incomplete ones.
type IO struct {
	Req     uint64
	Op      OpKind
	LPN     addr.LPN
	Pages   int
	QueueAt sim.Time
	// Subs counts block-layer sub-requests; SubsDone of them completed and
	// SubsErrored failed.
	Subs         int
	SubsDone     int
	SubsErrored  int
	LastComplete sim.Time
	TimedOut     bool
	Rejected     bool
}

// Complete reports whether the request fully completed: it was issued, all
// sub-requests reached the C state, none errored, and it did not time out.
// This is the paper's "completed" flag.
func (io *IO) Complete() bool {
	return !io.Rejected && !io.TimedOut && io.Subs > 0 &&
		io.SubsDone == io.Subs && io.SubsErrored == 0
}

// Q2C returns the queue-to-complete latency, valid only for complete IOs.
func (io *IO) Q2C() sim.Duration { return io.LastComplete.Sub(io.QueueAt) }

// Assemble folds an event stream into per-IO records ordered by queue time.
func Assemble(events []Event) []*IO {
	byReq := make(map[uint64]*IO)
	var order []uint64
	get := func(e Event) *IO {
		io, ok := byReq[e.Req]
		if !ok {
			io = &IO{Req: e.Req, Op: e.Op, LPN: e.LPN, Pages: e.Pages, QueueAt: e.At}
			byReq[e.Req] = io
			order = append(order, e.Req)
		}
		return io
	}
	for _, e := range events {
		io := get(e)
		switch e.Act {
		case ActQueue:
			io.QueueAt = e.At
			io.Op = e.Op
			io.LPN = e.LPN
			io.Pages = e.Pages
		case ActSplit:
			io.Subs++
		case ActComplete:
			io.SubsDone++
			if e.At > io.LastComplete {
				io.LastComplete = e.At
			}
		case ActError:
			io.SubsErrored++
		case ActTimeout:
			io.TimedOut = true
		case ActReject:
			io.Rejected = true
		}
	}
	out := make([]*IO, 0, len(order))
	for _, id := range order {
		out = append(out, byReq[id])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].QueueAt < out[j].QueueAt })
	return out
}
