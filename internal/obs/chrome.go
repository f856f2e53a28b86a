package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unicode/utf8"

	"powerfail/internal/sim"
)

// Process groups one simulation's obs events for Chrome trace export,
// block IOs included as KindBlockIO spans. Each Process renders as one
// Perfetto process row; components become named threads inside it.
type Process struct {
	Name   string
	Events []Event
}

// WriteChromeTrace renders processes as Chrome trace-event JSON
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
// viewable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
// Output is deterministic: same inputs, same bytes.
//
// Each event is encoded straight into a reused buffer that is written to
// w whenever it passes chromeFlushAt, so the whole file is never held in
// memory. The bytes are those encoding/json gives for one object
// {"traceEvents":[...],"displayTimeUnit":"ms"} whose events carry the
// fields name, ph, ts, dur, pid, tid, cat, s and args in that order, dur,
// cat, s and args omitted when empty; chrome_ref_test.go keeps that
// encoding as the reference the output is compared against.
func WriteChromeTrace(w io.Writer, procs []Process) error {
	c := chromeWriter{w: w, buf: make([]byte, 0, chromeFlushAt+1024)}
	c.buf = append(c.buf, `{"traceEvents":[`...)
	var order []chromeKey
	tids := map[string]int{}
	for pi, p := range procs {
		pid := pi + 1
		c.meta("process_name", pid, 0, p.Name)
		clear(tids)
		// Spans are recorded at completion but stamped with their start,
		// so order by time; ties keep record order, which is meaningful
		// within one instant.
		order = order[:0]
		for i := range p.Events {
			order = append(order, chromeKey{p.Events[i].At, i})
		}
		slices.SortStableFunc(order, func(a, b chromeKey) int { return cmp.Compare(a.at, b.at) })
		for _, k := range order {
			e := &p.Events[k.i]
			tid, ok := tids[e.Comp]
			if !ok {
				tid = len(tids) + 1
				tids[e.Comp] = tid
				c.meta("thread_name", pid, tid, e.Comp)
			}
			c.event(e, pid, tid)
			if err := c.flushIfFull(); err != nil {
				return err
			}
		}
	}
	c.buf = append(c.buf, "],\"displayTimeUnit\":\"ms\"}\n"...)
	_, err := c.w.Write(c.buf)
	return err
}

// chromeKey is one event of a process as the export sorts it: its
// instant, and its index in the process's events.
type chromeKey struct {
	at sim.Time
	i  int
}

// chromeFlushAt is the buffered size past which WriteChromeTrace writes
// its buffer out.
const chromeFlushAt = 64 << 10

// chromeWriter appends encoded trace events to buf.
type chromeWriter struct {
	w     io.Writer
	buf   []byte
	count int // events encoded so far
}

func (c *chromeWriter) flushIfFull() error {
	if len(c.buf) < chromeFlushAt {
		return nil
	}
	_, err := c.w.Write(c.buf)
	c.buf = c.buf[:0]
	return err
}

// open starts the next event: a separating comma, then {"name":"<prefix><name>","ph":"<ph>".
func (c *chromeWriter) open(prefix, name, ph string) {
	if c.count > 0 {
		c.buf = append(c.buf, ',')
	}
	c.count++
	c.buf = append(c.buf, `{"name":"`...)
	c.buf = appendEscaped(c.buf, prefix)
	c.buf = appendEscaped(c.buf, name)
	c.buf = append(c.buf, `","ph":"`...)
	c.buf = append(c.buf, ph...)
	c.buf = append(c.buf, `","ts":`...)
}

// meta writes a metadata (ph "M") event naming a process or thread.
func (c *chromeWriter) meta(kind string, pid, tid int, name string) {
	c.open("", kind, "M")
	c.buf = append(c.buf, '0')
	c.routing(pid, tid)
	c.buf = append(c.buf, `,"args":{"name":"`...)
	c.buf = appendEscaped(c.buf, name)
	c.buf = append(c.buf, `"}}`...)
}

// event writes one trace event: a counter for a queue-depth sample, a
// process-wide instant for a power edge, a complete (ph "X") event for a
// span, and a thread instant for anything else.
func (c *chromeWriter) event(e *Event, pid, tid int) {
	switch {
	case e.Kind == KindQueueDepth:
		c.open("", e.Name, "C")
		c.buf = appendMicros(c.buf, int64(e.At))
		c.routing(pid, tid)
		c.category(e.Kind)
		c.arg("depth", e.Value)
	case e.Kind == KindPower:
		edge := "restore "
		if e.Value != 0 {
			edge = "cut "
		}
		c.open(edge, e.Name, "i")
		c.buf = appendMicros(c.buf, int64(e.At))
		c.routing(pid, tid)
		c.category(e.Kind)
		c.buf = append(c.buf, `,"s":"p"}`...)
	case e.Dur > 0 || e.Kind == KindSpan || e.Kind == KindBlockIO:
		c.open("", e.Name, "X")
		c.buf = appendMicros(c.buf, int64(e.At))
		if e.Dur != 0 {
			c.buf = append(c.buf, `,"dur":`...)
			c.buf = appendMicros(c.buf, int64(e.Dur))
		}
		c.routing(pid, tid)
		c.category(e.Kind)
		c.arg("value", e.Value)
	default:
		c.open("", e.Name, "i")
		c.buf = appendMicros(c.buf, int64(e.At))
		c.routing(pid, tid)
		c.category(e.Kind)
		c.buf = append(c.buf, `,"s":"t"`...)
		c.arg("value", e.Value)
	}
}

func (c *chromeWriter) routing(pid, tid int) {
	c.buf = append(c.buf, `,"pid":`...)
	c.buf = strconv.AppendInt(c.buf, int64(pid), 10)
	c.buf = append(c.buf, `,"tid":`...)
	c.buf = strconv.AppendInt(c.buf, int64(tid), 10)
}

func (c *chromeWriter) category(k Kind) {
	c.buf = append(c.buf, `,"cat":"`...)
	c.buf = appendEscaped(c.buf, k.String())
	c.buf = append(c.buf, '"')
}

// arg closes the event with a one-entry args object.
func (c *chromeWriter) arg(key string, v int64) {
	c.buf = append(c.buf, `,"args":{"`...)
	c.buf = append(c.buf, key...)
	c.buf = append(c.buf, `":`...)
	c.buf = strconv.AppendInt(c.buf, v, 10)
	c.buf = append(c.buf, "}}"...)
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// appendMicros appends ns nanoseconds in microseconds, as encoding/json
// formats usOf(ns): the shortest decimal that round-trips. encoding/json
// switches to exponent form only below 1e-6 or from 1e21 on, and an
// int64 count of nanoseconds in microseconds is 0 or between 1e-3 and
// 1e16 in magnitude, so its form is always plain 'f'.
//
// Below 1e15 ns the exact quotient has at most 15 significant digits,
// and any decimal of 15 digits or fewer names a distinct float64, so the
// shortest round-tripping decimal is the quotient itself: the integer
// part, then the fraction's digits with trailing zeros cut. On 2 vCPUs
// BenchmarkWriteChromeTrace takes 13 ms this way and 22 ms with
// strconv.AppendFloat for every timestamp.
func appendMicros(dst []byte, ns int64) []byte {
	if ns < 0 || ns >= 1e15 {
		return strconv.AppendFloat(dst, usOf(ns), 'f', -1, 64)
	}
	dst = strconv.AppendInt(dst, ns/1000, 10)
	frac := ns % 1000
	if frac == 0 {
		return dst
	}
	dst = append(dst, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	for dst[len(dst)-1] == '0' {
		dst = dst[:len(dst)-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendEscaped appends s as the inside of a JSON string, escaped as
// encoding/json escapes it by default: quote, backslash and the control
// bytes; <, > and & (HTML-safe); U+2028 and U+2029; and each byte of
// invalid UTF-8 as U+FFFD.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
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
