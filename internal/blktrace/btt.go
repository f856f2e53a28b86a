package blktrace

import (
	"fmt"
	"io"
	"sort"

	"powerfail/internal/addr"
	"powerfail/internal/sim"
)

// IO is the btt-style per-IO assembly of one request's events: queueing,
// splitting, per-sub-request dispatch and completion. The paper's modified
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
	Subs          int
	SubsDone      int
	SubsErrored   int
	FirstDispatch sim.Time
	LastComplete  sim.Time
	TimedOut      bool
	Rejected      bool
	haveDispatch  bool
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
		case ActDispatch:
			if !io.haveDispatch || e.At < io.FirstDispatch {
				io.FirstDispatch = e.At
				io.haveDispatch = true
			}
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

// Summary aggregates per-IO statistics over a window.
type Summary struct {
	IOs       int
	Completed int
	Errored   int
	TimedOut  int
	Rejected  int
	Reads     int
	Writes    int
	AvgQ2C    sim.Duration
	MaxQ2C    sim.Duration
}

// Summarize computes aggregate statistics for a set of IOs.
func Summarize(ios []*IO) Summary {
	var s Summary
	var total sim.Duration
	for _, io := range ios {
		s.IOs++
		switch io.Op {
		case OpRead:
			s.Reads++
		case OpWrite:
			s.Writes++
		}
		switch {
		case io.Rejected:
			s.Rejected++
		case io.TimedOut:
			s.TimedOut++
		case io.Complete():
			s.Completed++
			q2c := io.Q2C()
			total += q2c
			if q2c > s.MaxQ2C {
				s.MaxQ2C = q2c
			}
		case io.SubsErrored > 0:
			s.Errored++
		}
	}
	if s.Completed > 0 {
		s.AvgQ2C = total / sim.Duration(s.Completed)
	}
	return s
}

// DumpPerIO writes IOs in the text format of the modified btt per-IO dump:
// one header line per request followed by indented timing fields.
func DumpPerIO(w io.Writer, ios []*IO) error {
	for _, io := range ios {
		state := "incomplete"
		switch {
		case io.Rejected:
			state = "rejected"
		case io.TimedOut:
			state = "timeout"
		case io.Complete():
			state = "complete"
		}
		_, err := fmt.Fprintf(w, "io req=%d op=%c lpn=%d pages=%d subs=%d done=%d err=%d state=%s\n"+
			"  q=%.9f d=%.9f c=%.9f\n",
			io.Req, io.Op, io.LPN, io.Pages, io.Subs, io.SubsDone, io.SubsErrored, state,
			io.QueueAt.Seconds(), io.FirstDispatch.Seconds(), io.LastComplete.Seconds())
		if err != nil {
			return err
		}
	}
	return nil
}
