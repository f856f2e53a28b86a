// Command perfbench is the powerfail benchmark. It runs one named
// workload through the public powerfail API for a fixed host-time budget
// and prints its metrics by name with units, ending with one JSON line:
//
//	go run . --workload paper-write --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced,
// with timings scaled to a fixed host speed (see hostspeed.go).
// With --trace 1 it prints the per-layer metrics of a separate traced
// run: spans from a timing shim in front of the device, a CPU profile
// attributed to the internal packages, exact simulated counts per fault,
// and layer probes. Every experiment runs on one goroutine, back to back,
// and each experiment's seed derives from --seed. Every run checks its
// outputs (see gate.go) and exits 1 if any experiment fails a check.
//
// The model has no reference measurements from the paper's physical rig,
// so no accuracy metric is reported.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	seed := fs.Uint64("seed", 1, "base seed; experiment i runs with a seed derived from it")
	seconds := fs.Float64("seconds", 20, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	w, err := newWorkload(*name, false)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), probeTime: 100 * time.Millisecond}
	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %g s, trace %d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintln(stdout, "  model: unvalidated; the repo holds no measurements from the paper's rig, so no accuracy metric is reported")
	var out *outcome
	if *trace == 0 {
		out, err = b.endToEnd()
	} else {
		out, err = b.perLayer()
	}
	if out != nil {
		for _, f := range out.failures {
			fmt.Fprintln(stderr, "perfbench: FAILED", f)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := out.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if out.failed > 0 {
		return 1
	}
	return 0
}

// bench is one run: a workload, its base seed and its time budget.
type bench struct {
	w         *workload
	seed      uint64
	budget    time.Duration
	probeTime time.Duration
}

// hardStop ends the timed loop even when too few experiments finished,
// so a run always exits well inside three minutes; the tail rule then
// fails the run instead of reporting a thin percentile.
const hardStop = 120 * time.Second

// metric is one named value with its unit.
type metric struct {
	name, unit string
	value      float64
}

// outcome is what a run prints.
type outcome struct {
	attempted, failed int
	failures          []string
	notes             []string
	metrics           []metric
}

func (o *outcome) add(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{name, unit, v})
}

func (o *outcome) note(format string, a ...any) { o.notes = append(o.notes, fmt.Sprintf(format, a...)) }

// check counts one attempted experiment and records err, if any, as its
// failure.
func (o *outcome) check(what string, err error) bool {
	o.attempted++
	return o.verify(what, err)
}

// verify records err, if any, as the failure of an experiment that check
// already counted and passed.
func (o *outcome) verify(what string, err error) bool {
	if err == nil {
		return true
	}
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf("%s: %v", what, err))
	return false
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable lines and then the result as the last
// line of output.
func (o *outcome) print(w io.Writer) error {
	var buf bytes.Buffer
	for _, n := range o.notes {
		fmt.Fprintf(&buf, "  %s\n", n)
	}
	js := make(map[string]jsonMetric, len(o.metrics))
	for _, m := range o.metrics {
		fmt.Fprintf(&buf, "  %-44s %14.6g %s\n", m.name, m.value, m.unit)
		js[m.name] = jsonMetric{m.value, m.unit}
	}
	fmt.Fprintf(&buf, "  %-44s %14.6g ratio (%d of %d experiments)\n", "experiment_fail_ratio",
		float64(o.failed)/float64(max(o.attempted, 1)), o.failed, o.attempted)
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, js})
	if err != nil {
		return err
	}
	buf.Write(line)
	buf.WriteByte('\n')
	_, err = w.Write(buf.Bytes())
	return err
}

// endToEnd is the untraced run: a warm-up experiment, then experiments
// back to back for the budget (and at least enough for the p90 rule),
// then the gate experiments.
func (b *bench) endToEnd() (*outcome, error) {
	w := b.w
	o := &outcome{}
	first, firstNoObs, heap, err := b.warmUp(o)
	if err != nil {
		return o, err
	}
	// refs holds the host probe times (hostspeed.go).
	var refs []time.Duration
	probeNow := func() (time.Duration, error) {
		d, err := probeHost()
		refs = append(refs, d)
		return d, err
	}
	minN := samplesFor(0.9)
	// totals and setups are at the reference host speed; the raw ones are
	// as measured, for the notes.
	var totals, setups, rawTotals, rawSetups []time.Duration
	var mallocs, allocBytes uint64
	faults := 0
	hash := sha256.New()
	after, err := probeNow()
	if err != nil {
		return o, err
	}
	start := time.Now()
	for i := 0; ; i++ {
		if el := time.Since(start); (el >= b.budget && i >= minN) || el >= hardStop {
			break
		}
		seed := expSeed(b.seed, i)
		var fleetSetup time.Duration
		if w.isFleet() {
			_, d, err := w.fleetSetup(seed)
			if err != nil {
				o.check(fmt.Sprintf("experiment %d set-up", i), err)
				continue
			}
			fleetSetup = d
		}
		res := w.experiment(seed, variant{})
		before := after
		if after, err = probeNow(); err != nil {
			return o, err
		}
		what := fmt.Sprintf("experiment %d", i)
		if !o.check(what, checkReport(res.rep, res.err, w.faults)) {
			continue
		}
		if i < minN {
			js, err := reportJSON(res.rep)
			if err != nil {
				return o, err
			}
			hash.Write(js)
			if i == 0 && !o.verify(what+" against the warm-up", sameReport(first, js)) {
				continue
			}
		}
		if w.isFleet() {
			res.setup = fleetSetup
		}
		totals = append(totals, atNominal(res.total, before, after))
		rawTotals = append(rawTotals, res.total)
		setups = append(setups, atNominal(res.setup, before, after))
		rawSetups = append(rawSetups, res.setup)
		mallocs += res.mallocs
		allocBytes += res.bytes
		faults += res.rep.Faults
	}
	p90, beyond, err := tail(totals, 0.9)
	if err != nil {
		return o, fmt.Errorf("%d of %d experiments passed in %v: %w",
			len(totals), o.attempted, time.Since(start).Round(time.Millisecond), err)
	}
	rawP90, _, _ := tail(rawTotals, 0.9)
	if err := b.gate(o, first, firstNoObs); err != nil {
		return o, err
	}
	o.note("experiments: %d timed (%d beyond p90), %d fault cycles each; %d more for warm-up and gate",
		len(totals), beyond, w.faults, o.attempted-len(totals))
	o.note("report_sha256: %x over the first %d reports", hash.Sum(nil), minN)
	o.note("host speed: probe median %.3f ms against %.3f ms nominal; timings below are at nominal speed",
		ms(median(refs)), ms(refNominal))
	o.note("as measured: fault_cycles_per_s %.4g, experiment_ms_p50 %.4g, setup_s %.4g",
		float64(faults)/sum(rawTotals).Seconds(), ms(median(rawTotals)), median(rawSetups).Seconds())
	// The tail is printed but not bounded: in slow stretches of a shared
	// host it rises far more than the probe can account for (README.md,
	// Host speed).
	o.note("experiment_ms_p90: %.6g ms at nominal speed, %.6g ms as measured (printed, not bounded)",
		ms(p90), ms(rawP90))
	o.add("fault_cycles_per_s", "1/s", float64(faults)/sum(totals).Seconds())
	o.add("experiment_ms_p50", "ms", ms(median(totals)))
	o.add("setup_s", "s", median(setups).Seconds())
	o.add("allocs_per_fault", "count", float64(mallocs)/float64(faults))
	o.add("alloc_bytes_per_fault", "B", float64(allocBytes)/float64(faults))
	o.add("live_heap_mb", "MiB", heap)
	return o, nil
}

// warmUp runs experiment 0 untimed, so the heap has grown and the code
// is paged in before anything is timed. It returns the report's bytes,
// with and without the obs section, for the gate to compare against, and
// the live heap in MiB after a forced GC with the finished experiment's
// platform (for the fleet, its simulation) still reachable.
func (b *bench) warmUp(o *outcome) (first, firstNoObs []byte, heapMiB float64, err error) {
	w := b.w
	seed := expSeed(b.seed, 0)
	res := w.experiment(seed, variant{})
	if !o.check("warm-up experiment 0", checkReport(res.rep, res.err, w.faults)) {
		return nil, nil, 0, fmt.Errorf("warm-up experiment failed")
	}
	if first, err = reportJSON(res.rep); err != nil {
		return nil, nil, 0, err
	}
	if firstNoObs, err = withoutObs(res.rep); err != nil {
		return nil, nil, 0, err
	}
	var keep any = res.plat
	if w.isFleet() {
		f, _, err := w.fleetSetup(seed)
		if err != nil {
			return nil, nil, 0, err
		}
		f.Run()
		keep = f
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(keep)
	return first, firstNoObs, float64(m.HeapAlloc) / (1 << 20), nil
}

// gate re-runs experiment 0 behind the timing shim, whose report must
// equal the untraced one, and with observability off where the workload
// has it on, whose report must equal the obs-on one with its obs section
// removed.
func (b *bench) gate(o *outcome, first, firstNoObs []byte) error {
	w := b.w
	same := func(what string, v variant, want []byte) error {
		res := w.experiment(expSeed(b.seed, 0), v)
		if !o.check(what, checkReport(res.rep, res.err, w.faults)) {
			return nil
		}
		got, err := reportJSON(res.rep)
		if err != nil {
			return err
		}
		o.verify(what, sameReport(want, got))
		return nil
	}
	if !w.isFleet() {
		if err := same("shimmed experiment 0", variant{shim: &spanShim{}}, first); err != nil {
			return err
		}
	}
	if w.opts.Obs != nil {
		return same("obs-off experiment 0", variant{obsOff: true}, firstNoObs)
	}
	return nil
}
