// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON document: benchmark name → per-metric summaries
// (ns/op, B/op, allocs/op, plus every custom b.ReportMetric unit such as
// events/s, losses/fault, faultcycles/s or sim_ms/fault). CI uses it to
// emit a BENCH_<date>.json artifact next to the raw bench.txt; the
// checked-in bench/BENCH_*.json files are the seeded baselines.
//
// Usage:
//
//	go test -bench . -benchtime 1x -count=6 ./... | benchjson > BENCH_<date>.json
//	benchjson -in bench.txt -o BENCH_<date>.json
//
// Repeated runs of one benchmark (-count > 1) fold into a single entry:
// each metric records its sample count n, the mean, and the half-width of
// the 95% confidence interval of the mean (Student t with n-1 degrees of
// freedom; absent when n < 2). Non-benchmark lines (test output, series
// tables) are ignored.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"powerfail/internal/runstore"
)

// entry summarises one benchmark's samples.
type entry struct {
	Samples int             `json:"samples"`
	Iters   int64           `json:"iterations"`
	Metrics map[string]stat `json:"metrics"`
	values  map[string][]float64
}

// stat summarises one metric over its samples.
type stat struct {
	N    int      `json:"n"`
	Mean float64  `json:"mean"`
	CI95 *float64 `json:"ci95,omitempty"` // half-width; nil when N < 2
}

type document struct {
	Date       string            `json:"date"`
	GoVersion  string            `json:"go"`
	GOOS       string            `json:"goos,omitempty"`
	GOARCH     string            `json:"goarch,omitempty"`
	Benchmarks map[string]*entry `json:"benchmarks"`
}

func main() {
	in := flag.String("in", "", "read bench output from this file (default stdin)")
	out := flag.String("o", "", "write JSON to this file (default stdout)")
	date := flag.String("date", time.Now().UTC().Format("2006-01-02"), "date stamp for the document")
	flag.Parse()

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}

	doc, err := summarize(r, *date)
	if err != nil {
		fatal(err)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// encoding/json sorts map keys, so the document is diff-friendly.
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
}

// summarize reads bench output and folds every benchmark's samples.
func summarize(r io.Reader, date string) (document, error) {
	doc := document{
		Date:       date,
		GoVersion:  runtime.Version(),
		Benchmarks: map[string]*entry{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
			continue
		}
		name, iters, metrics, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		e := doc.Benchmarks[name]
		if e == nil {
			e = &entry{Metrics: map[string]stat{}, values: map[string][]float64{}}
			doc.Benchmarks[name] = e
		}
		e.Samples++
		e.Iters += iters
		for unit, v := range metrics {
			e.values[unit] = append(e.values[unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return doc, err
	}
	if len(doc.Benchmarks) == 0 {
		return doc, fmt.Errorf("no benchmark result lines in input")
	}
	for _, e := range doc.Benchmarks {
		for unit, xs := range e.values {
			e.Metrics[unit] = summarizeSamples(xs)
		}
	}
	return doc, nil
}

// summarizeSamples returns the mean of xs and, for two or more samples,
// the half-width of its 95% confidence interval.
func summarizeSamples(xs []float64) stat {
	mean, half, ok := runstore.MeanCI95(xs)
	st := stat{N: len(xs), Mean: mean}
	if ok {
		st.CI95 = &half
	}
	return st
}

// parseBenchLine decodes one `BenchmarkName-P  N  v1 unit1  v2 unit2 ...`
// result line. The -P GOMAXPROCS suffix is stripped so baselines compare
// across runner shapes.
func parseBenchLine(line string) (name string, iters int64, metrics map[string]float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, nil, false
	}
	name = fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", 0, nil, false
	}
	metrics = map[string]float64{}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", 0, nil, false
		}
		metrics[fields[i+1]] = v
	}
	if len(metrics) == 0 {
		return "", 0, nil, false
	}
	return name, iters, metrics, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
