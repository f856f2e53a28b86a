package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"powerfail/internal/blktrace"
	"powerfail/internal/sim"
)

// EventsHeader is the first line of the unified obs/blktrace event
// format. Version 2 superseded a headerless float-seconds blkparse-like
// log, which is no longer read; the version bump bought exact integer-
// nanosecond timestamps and one merged clock for block and obs events.
const EventsHeader = "# powerfail-events v2"

// WriteUnifiedEvents writes obs and block events merged onto one clock in
// the v2 text format:
//
//	# powerfail-events v2
//	t=<ns> blk <act> <op> req=<n> sub=<n> lpn=<n> pages=<n>
//	t=<ns> obs <kind> comp=<s> name=<quoted> val=<n> dur=<ns>
//
// Spans are recorded at completion but stamped with their start time, so
// the inputs need not be time-ordered; the writer stable-sorts copies.
// Ties order block events first.
func WriteUnifiedEvents(w io.Writer, events []Event, blk []blktrace.Event) error {
	events = append([]Event(nil), events...)
	SortEvents(events)
	blk = append([]blktrace.Event(nil), blk...)
	sort.SliceStable(blk, func(i, j int) bool { return blk[i].At < blk[j].At })
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, EventsHeader); err != nil {
		return err
	}
	i, j := 0, 0
	for i < len(events) || j < len(blk) {
		if j < len(blk) && (i >= len(events) || blk[j].At <= events[i].At) {
			b := blk[j]
			j++
			if _, err := fmt.Fprintf(bw, "t=%d blk %c %c req=%d sub=%d lpn=%d pages=%d\n",
				int64(b.At), b.Act, b.Op, b.Req, b.Sub, b.LPN, b.Pages); err != nil {
				return err
			}
			continue
		}
		e := events[i]
		i++
		if _, err := fmt.Fprintf(bw, "t=%d obs %s comp=%s name=%s val=%d dur=%d\n",
			int64(e.At), e.Kind, e.Comp, strconv.Quote(e.Name), e.Value, int64(e.Dur)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadUnifiedEvents parses the WriteUnifiedEvents format back into its
// two streams. Input that does not open with EventsHeader (empty,
// headerless or another version) is an error naming the header.
func ReadUnifiedEvents(r io.Reader) ([]Event, []blktrace.Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	sawHeader := false
	var events []Event
	var blk []blktrace.Event
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if !sawHeader {
			if !strings.HasPrefix(text, "# powerfail-events") {
				return nil, nil, fmt.Errorf("obs: line %d: missing %q header", line, EventsHeader)
			}
			if text != EventsHeader {
				return nil, nil, fmt.Errorf("obs: line %d: unsupported events version %q (want %q)", line, text, EventsHeader)
			}
			sawHeader = true
			continue
		}
		if strings.HasPrefix(text, "#") {
			continue
		}
		var ns int64
		var tag string
		n, err := fmt.Sscanf(text, "t=%d %s", &ns, &tag)
		if err != nil || n != 2 {
			return nil, nil, fmt.Errorf("obs: parse line %d: bad record prefix", line)
		}
		rest := text[strings.Index(text, tag)+len(tag):]
		switch tag {
		case "blk":
			var act, op string
			var b blktrace.Event
			if _, err := fmt.Sscanf(rest, "%s %s req=%d sub=%d lpn=%d pages=%d",
				&act, &op, &b.Req, &b.Sub, (*int64)(&b.LPN), &b.Pages); err != nil {
				return nil, nil, fmt.Errorf("obs: parse line %d: %w", line, err)
			}
			if len(act) != 1 || len(op) != 1 || !blktrace.Action(act[0]).Valid() {
				return nil, nil, fmt.Errorf("obs: parse line %d: bad action/op", line)
			}
			b.At = sim.Time(ns)
			b.Act = blktrace.Action(act[0])
			b.Op = blktrace.OpKind(op[0])
			blk = append(blk, b)
		case "obs":
			e, err := parseObsLine(ns, strings.TrimSpace(rest))
			if err != nil {
				return nil, nil, fmt.Errorf("obs: parse line %d: %w", line, err)
			}
			events = append(events, e)
		default:
			return nil, nil, fmt.Errorf("obs: parse line %d: unknown record tag %q", line, tag)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if !sawHeader {
		return nil, nil, fmt.Errorf("obs: empty input: missing %q header", EventsHeader)
	}
	return events, blk, nil
}

func parseObsLine(ns int64, rest string) (Event, error) {
	e := Event{At: sim.Time(ns)}
	fields := strings.SplitN(rest, " ", 3)
	if len(fields) < 3 {
		return e, fmt.Errorf("short obs record")
	}
	kind, err := ParseKind(fields[0])
	if err != nil {
		return e, err
	}
	e.Kind = kind
	if !strings.HasPrefix(fields[1], "comp=") {
		return e, fmt.Errorf("missing comp=")
	}
	e.Comp = strings.TrimPrefix(fields[1], "comp=")
	rest = fields[2]
	if !strings.HasPrefix(rest, "name=") {
		return e, fmt.Errorf("missing name=")
	}
	rest = strings.TrimPrefix(rest, "name=")
	// Name is a Go-quoted string (it may contain spaces); find its end by
	// unquoting the longest valid prefix.
	end := quotedEnd(rest)
	if end < 0 {
		return e, fmt.Errorf("bad quoted name")
	}
	name, err := strconv.Unquote(rest[:end])
	if err != nil {
		return e, fmt.Errorf("bad quoted name: %w", err)
	}
	e.Name = name
	var dur int64
	if _, err := fmt.Sscanf(strings.TrimSpace(rest[end:]), "val=%d dur=%d", &e.Value, &dur); err != nil {
		return e, fmt.Errorf("bad val/dur: %w", err)
	}
	e.Dur = sim.Duration(dur)
	return e, nil
}

// quotedEnd returns the index just past the closing quote of the
// Go-quoted string starting at s[0], or -1.
func quotedEnd(s string) int {
	if len(s) == 0 || s[0] != '"' {
		return -1
	}
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return -1
}

// SortEvents orders events by time, keeping the original order of
// equal-time events (record order is meaningful within one instant).
func SortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
}
