package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Process groups one simulation's obs events for Chrome trace export,
// block IOs included as KindBlockIO spans. Each Process renders as one
// Perfetto process row; components become named threads inside it.
type Process struct {
	Name   string
	Events []Event
}

// chromeEvent is one record of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Struct (not map) so field order — and therefore output bytes — is
// fixed; args maps are fine because encoding/json sorts map keys.
type chromeEvent struct {
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

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChromeTrace renders processes as Chrome trace-event JSON viewable
// in Perfetto (https://ui.perfetto.dev) or chrome://tracing. Output is
// deterministic: same inputs, same bytes.
func WriteChromeTrace(w io.Writer, procs []Process) error {
	out := chromeFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for pi, p := range procs {
		pid := pi + 1
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
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
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: t,
				Args: map[string]any{"name": comp},
			})
			return t
		}
		events := append([]Event(nil), p.Events...)
		// Spans are recorded at completion but stamped with their start,
		// so order by time; a stable sort keeps record order within one
		// instant, where it is meaningful.
		sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
		for _, e := range events {
			ce := chromeEvent{
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
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// validPhases are the trace-event phases this exporter emits.
var validPhases = map[string]bool{"X": true, "i": true, "C": true, "M": true}

// ValidateChromeTrace checks that r holds trace-event JSON of the shape
// WriteChromeTrace emits: a traceEvents array whose records all carry a
// name, a known phase, a non-negative timestamp and pid/tid routing.
// Returns the number of events validated.
func ValidateChromeTrace(r io.Reader) (int, error) {
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return 0, fmt.Errorf("obs: trace JSON: %w", err)
	}
	if f.TraceEvents == nil {
		return 0, fmt.Errorf("obs: trace JSON: missing traceEvents array")
	}
	for i, e := range f.TraceEvents {
		name, ok := e["name"].(string)
		if !ok || name == "" {
			return 0, fmt.Errorf("obs: trace event %d: missing name", i)
		}
		ph, ok := e["ph"].(string)
		if !ok || !validPhases[ph] {
			return 0, fmt.Errorf("obs: trace event %d (%q): bad phase %v", i, name, e["ph"])
		}
		if ph != "M" {
			ts, ok := e["ts"].(float64)
			if !ok || ts < 0 {
				return 0, fmt.Errorf("obs: trace event %d (%q): bad ts %v", i, name, e["ts"])
			}
		}
		if _, ok := e["pid"].(float64); !ok {
			return 0, fmt.Errorf("obs: trace event %d (%q): missing pid", i, name)
		}
		if dur, present := e["dur"]; present {
			if d, ok := dur.(float64); !ok || d < 0 {
				return 0, fmt.Errorf("obs: trace event %d (%q): bad dur %v", i, name, dur)
			}
		}
	}
	return len(f.TraceEvents), nil
}
