package main

import (
	"math"
	"strings"
	"testing"
)

// TestParseBenchmemLine: -benchmem result lines carry B/op and allocs/op
// alongside ns/op and custom metrics; all of them land in the document so
// CI baselines track allocation regressions, not just time.
func TestParseBenchmemLine(t *testing.T) {
	name, iters, metrics, ok := parseBenchLine(
		"BenchmarkQueueSubmitComplete-8   \t 2000\t       120.8 ns/op\t       0 B/op\t       0 allocs/op")
	if !ok {
		t.Fatal("benchmem line did not parse")
	}
	if name != "BenchmarkQueueSubmitComplete" {
		t.Fatalf("name = %q (GOMAXPROCS suffix must be stripped)", name)
	}
	if iters != 2000 {
		t.Fatalf("iters = %d", iters)
	}
	for unit, want := range map[string]float64{"ns/op": 120.8, "B/op": 0, "allocs/op": 0} {
		got, present := metrics[unit]
		if !present || got != want {
			t.Fatalf("metrics[%q] = %v (present=%v), want %v", unit, got, present, want)
		}
	}
}

// TestParseCustomMetrics: b.ReportMetric units ride the same line.
func TestParseCustomMetrics(t *testing.T) {
	_, _, metrics, ok := parseBenchLine(
		"BenchmarkFleetCampaign-8   3\t 400000000 ns/op\t 2500000 events/s\t 120 B/op\t 2 allocs/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if metrics["events/s"] != 2.5e6 || metrics["allocs/op"] != 2 {
		t.Fatalf("metrics = %v", metrics)
	}
}

// TestParseRejectsNonBench: table rows and prose never parse as results.
func TestParseRejectsNonBench(t *testing.T) {
	for _, line := range []string{
		"ok  	powerfail	2.189s",
		"| point | faults |",
		"BenchmarkBroken-8 notanumber 12 ns/op",
	} {
		if _, _, _, ok := parseBenchLine(line); ok {
			t.Fatalf("line parsed as benchmark: %q", line)
		}
	}
}

// TestSummarizeMeanAndCI: -count samples fold into n, the mean and the
// Student-t 95% half-width; a single sample carries no interval.
func TestSummarizeMeanAndCI(t *testing.T) {
	in := strings.NewReader(`goos: linux
goarch: amd64
BenchmarkA-2   10   1 ns/op   0 allocs/op
BenchmarkA-2   10   2 ns/op   0 allocs/op
BenchmarkA-2   10   3 ns/op   0 allocs/op
BenchmarkA-2   10   4 ns/op   0 allocs/op
BenchmarkA-2   10   5 ns/op   0 allocs/op
BenchmarkA-2   10   6 ns/op   0 allocs/op
BenchmarkB-2   1    7 ns/op
PASS
`)
	doc, err := summarize(in, "2026-01-02")
	if err != nil {
		t.Fatal(err)
	}
	a := doc.Benchmarks["BenchmarkA"]
	if a == nil || a.Samples != 6 || a.Iters != 60 {
		t.Fatalf("BenchmarkA = %+v", a)
	}
	ns := a.Metrics["ns/op"]
	// sd = sqrt(17.5/5), se = sd/sqrt(6), t(5) = 2.571.
	want := 2.571 * math.Sqrt(3.5) / math.Sqrt(6)
	if ns.N != 6 || ns.Mean != 3.5 || ns.CI95 == nil || math.Abs(*ns.CI95-want) > 1e-9 {
		t.Fatalf("ns/op = %+v (ci %v), want n 6 mean 3.5 ci %v", ns, ns.CI95, want)
	}
	if al := a.Metrics["allocs/op"]; al.Mean != 0 || al.CI95 == nil || *al.CI95 != 0 {
		t.Fatalf("allocs/op = %+v", al)
	}
	if b := doc.Benchmarks["BenchmarkB"].Metrics["ns/op"]; b.N != 1 || b.Mean != 7 || b.CI95 != nil {
		t.Fatalf("single sample = %+v", b)
	}
	if doc.GOOS != "linux" || doc.GOARCH != "amd64" || doc.Date != "2026-01-02" {
		t.Fatalf("header = %+v", doc)
	}
}

// TestSummarizeRejectsEmpty: input without result lines is an error.
func TestSummarizeRejectsEmpty(t *testing.T) {
	if _, err := summarize(strings.NewReader("PASS\nok  powerfail 1.0s\n"), "d"); err == nil {
		t.Fatal("empty input accepted")
	}
}
