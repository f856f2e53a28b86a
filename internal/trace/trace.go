// Package trace parses MSR-Cambridge-style CSV block traces and replays
// them through the fault-injection pipeline. Real storage-reliability
// studies in this paper's lineage validate against block traces, not only
// synthetic mixes; this package is the third IO source the runner can
// drive (next to the synthetic generator and the WAL transaction engine).
//
// Two row formats are accepted, detected by column count and consistent
// per file:
//
//	MSR Cambridge (7 columns):
//	    Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//	    — Timestamp in Windows 100 ns ticks, Type "Read"/"Write",
//	    Offset/Size in bytes (Hostname/DiskNumber/ResponseTime ignored).
//	simple (4 columns):
//	    timestamp_ns,op,offset,size
//	    — timestamp in integer nanoseconds, op R/W (or read/write),
//	    offset/size in bytes.
//
// Blank lines, '#' comments and a single leading header row are skipped;
// any other malformed row is an error naming its line. Accepted rows are
// canonical: timestamps never move backwards, sizes are positive and
// bounded, and a record survives a format/parse round trip byte for byte
// (fuzzed by FuzzParseTrace).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"powerfail/internal/addr"
	"powerfail/internal/sim"
)

// Op is the request direction of a trace record.
type Op int

// Record directions.
const (
	OpRead Op = iota
	OpWrite
)

// String implements fmt.Stringer.
func (o Op) String() string {
	if o == OpWrite {
		return "write"
	}
	return "read"
}

// Canonical-row bounds: a single request is at most 1 GiB and no address
// reaches past 1 PiB, which rejects corrupt rows before they can balloon
// into multi-terabyte page allocations at replay time.
const (
	MaxRecordBytes = int64(1) << 30
	MaxOffsetBytes = int64(1) << 50
)

// Record is one parsed trace row, normalized to the platform's 4 KiB page
// granularity and to an arrival offset from the trace's first row.
type Record struct {
	// At is the arrival offset from the first record (the first record's
	// At is always 0).
	At    sim.Duration
	Op    Op
	LPN   addr.LPN
	Pages int
}

// Trace is a parsed block trace.
type Trace struct {
	Name    string
	Records []Record
}

// Extent returns the trace's address-space extent in pages: the smallest
// device (in 4 KiB pages) the trace fits without scaling.
func (t *Trace) Extent() int64 {
	var max int64
	for _, r := range t.Records {
		if end := int64(r.LPN) + int64(r.Pages); end > max {
			max = end
		}
	}
	return max
}

// lapGap is the pause between the last record of one open-loop lap and
// the first of the next: the trace's mean inter-arrival gap, at least
// 1 µs. A wrapped lap so keeps the trace's cadence. t must hold records.
func (t *Trace) lapGap() sim.Duration {
	return max(t.Duration()/sim.Duration(len(t.Records)), sim.Microsecond)
}

// Duration returns the arrival offset of the last record.
func (t *Trace) Duration() sim.Duration {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].At
}

// Writes returns the number of write records.
func (t *Trace) Writes() int {
	n := 0
	for _, r := range t.Records {
		if r.Op == OpWrite {
			n++
		}
	}
	return n
}

// String implements fmt.Stringer.
func (t *Trace) String() string {
	return fmt.Sprintf("trace %s: %d records (%d writes) over %s, extent %d pages",
		t.Name, len(t.Records), t.Writes(), t.Duration(), t.Extent())
}

// ParseFile parses the trace at path; the trace name is the base filename
// without its extension.
func ParseFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return Parse(f, name)
}

// Parse reads a trace from r. The row format (MSR or simple) is detected
// from the first data row and must stay consistent; a malformed row fails
// the whole parse with its line number — a trace with silent holes would
// misrepresent the workload it claims to replay.
func Parse(r io.Reader, name string) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var recs []Record
	var t0, prev int64
	var unit sim.Duration
	var cols int
	line := 0
	headerAllowed := true
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		if headerAllowed {
			headerAllowed = false
			if first, _, _ := strings.Cut(s, ","); !startsNumeric(first) {
				continue // one header row, e.g. "Timestamp,Hostname,..."
			}
		}
		fields := strings.Split(s, ",")
		if cols == 0 {
			cols = len(fields)
		} else if len(fields) != cols {
			return nil, fmt.Errorf("trace %s line %d: %d columns in a %d-column trace", name, line, len(fields), cols)
		}
		ts, u, rec, err := parseRow(fields)
		if err != nil {
			return nil, fmt.Errorf("trace %s line %d: %w", name, line, err)
		}
		if len(recs) == 0 {
			t0, unit = ts, u
		} else if ts < prev {
			return nil, fmt.Errorf("trace %s line %d: timestamp moves backwards", name, line)
		}
		prev = ts
		delta := ts - t0
		if delta > math.MaxInt64/int64(unit) {
			return nil, fmt.Errorf("trace %s line %d: timestamp span overflows", name, line)
		}
		rec.At = sim.Duration(delta) * unit
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace %s: %w", name, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace %s: no records", name)
	}
	return &Trace{Name: name, Records: recs}, nil
}

func startsNumeric(field string) bool {
	_, err := strconv.ParseInt(strings.TrimSpace(field), 10, 64)
	return err == nil
}

// parseRow decodes one CSV row into its raw timestamp (with the unit one
// timestamp tick represents) and the address/size-normalized record.
func parseRow(fields []string) (ts int64, unit sim.Duration, rec Record, err error) {
	var opField, offField, sizeField string
	switch len(fields) {
	case 7: // MSR Cambridge: ts,host,disk,type,offset,size,resp
		unit = 100 * sim.Nanosecond
		opField, offField, sizeField = fields[3], fields[4], fields[5]
	case 4: // simple: ts_ns,op,offset,size
		unit = sim.Nanosecond
		opField, offField, sizeField = fields[1], fields[2], fields[3]
	default:
		return 0, 0, rec, fmt.Errorf("%d columns (want 7 MSR or 4 simple)", len(fields))
	}
	ts, err = strconv.ParseInt(strings.TrimSpace(fields[0]), 10, 64)
	if err != nil || ts < 0 {
		return 0, 0, rec, fmt.Errorf("bad timestamp %q", fields[0])
	}
	switch strings.ToLower(strings.TrimSpace(opField)) {
	case "r", "read":
		rec.Op = OpRead
	case "w", "write":
		rec.Op = OpWrite
	default:
		return 0, 0, rec, fmt.Errorf("bad op %q", opField)
	}
	off, err := strconv.ParseInt(strings.TrimSpace(offField), 10, 64)
	if err != nil || off < 0 {
		return 0, 0, rec, fmt.Errorf("bad offset %q", offField)
	}
	size, err := strconv.ParseInt(strings.TrimSpace(sizeField), 10, 64)
	if err != nil {
		return 0, 0, rec, fmt.Errorf("bad size %q", sizeField)
	}
	if size <= 0 {
		return 0, 0, rec, fmt.Errorf("zero-size request")
	}
	if size > MaxRecordBytes {
		return 0, 0, rec, fmt.Errorf("request of %d bytes exceeds the %d-byte bound", size, MaxRecordBytes)
	}
	if off > MaxOffsetBytes-size {
		return 0, 0, rec, fmt.Errorf("offset %d out of range", off)
	}
	rec.LPN = addr.LPNOf(off)
	rec.Pages = addr.PagesFor(off + size - addr.AlignDown(off))
	if int64(rec.Pages)*addr.PageBytes > MaxRecordBytes {
		// An unaligned request right at the size bound would grow past it
		// once page-normalized; reject so accepted rows stay canonical.
		return 0, 0, rec, fmt.Errorf("request of %d pages exceeds the %d-byte bound", rec.Pages, MaxRecordBytes)
	}
	return ts, unit, rec, nil
}

// FormatRecord renders rec as a canonical simple-format row
// ("<ns>,<R|W>,<offset>,<size>"). Parsing a formatted record yields it
// back unchanged — the round-trip property FuzzParseTrace enforces.
func FormatRecord(rec Record) string {
	op := "R"
	if rec.Op == OpWrite {
		op = "W"
	}
	return fmt.Sprintf("%d,%s,%d,%d", int64(rec.At), op, rec.LPN.ByteOffset(), int64(rec.Pages)*addr.PageBytes)
}
