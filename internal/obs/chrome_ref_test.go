package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// refWriteChromeTrace is the Chrome exporter as it was written before
// WriteChromeTrace streamed its output: one chromeEvent struct per event,
// an args map where the event has one, and encoding/json over the whole
// file. It is kept as the reference the streaming writer must match byte
// for byte (chrome_diff_test.go).
func refWriteChromeTrace(w io.Writer, procs []Process) error {
	out := refChromeFile{TraceEvents: []refChromeEvent{}, DisplayTimeUnit: "ms"}
	for pi, p := range procs {
		pid := pi + 1
		out.TraceEvents = append(out.TraceEvents, refChromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": p.Name},
		})
		tids := map[string]int{}
		tidOf := func(comp string) int {
			if t, ok := tids[comp]; ok {
				return t
			}
			t := len(tids) + 1
			tids[comp] = t
			out.TraceEvents = append(out.TraceEvents, refChromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: t,
				Args: map[string]any{"name": comp},
			})
			return t
		}
		events := append([]Event(nil), p.Events...)
		sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
		for _, e := range events {
			ce := refChromeEvent{
				Name: e.Name,
				Ts:   usOf(int64(e.At)),
				Pid:  pid,
				Tid:  tidOf(e.Comp),
				Cat:  e.Kind.String(),
			}
			switch {
			case e.Kind == KindQueueDepth:
				ce.Ph = "C"
				ce.Args = map[string]any{"depth": e.Value}
			case e.Kind == KindPower:
				ce.Ph = "i"
				ce.S = "p"
				edge := "restore"
				if e.Value != 0 {
					edge = "cut"
				}
				ce.Name = edge + " " + e.Name
			case e.Dur > 0 || e.Kind == KindSpan || e.Kind == KindBlockIO:
				ce.Ph = "X"
				ce.Dur = usOf(int64(e.Dur))
				ce.Args = map[string]any{"value": e.Value}
			default:
				ce.Ph = "i"
				ce.S = "t"
				ce.Args = map[string]any{"value": e.Value}
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		}
	}
	return json.NewEncoder(w).Encode(out)
}

// refChromeEvent is one record of the Chrome trace-event format. Struct
// (not map) so field order, and therefore output bytes, is fixed.
type refChromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type refChromeFile struct {
	TraceEvents     []refChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
}
