package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics fails unless o reports exactly the named metrics, each
// once, with the declared unit and a finite value.
func checkMetrics(t *testing.T, o *outcome, want map[string]string) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range o.metrics {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, nameRE)
		}
		if seen[m.name] {
			t.Errorf("metric %q reported twice", m.name)
		}
		seen[m.name] = true
		unit, ok := want[m.name]
		if !ok {
			t.Errorf("metric %q is not declared in BENCHMARK.json", m.name)
		} else if unit != m.unit {
			t.Errorf("metric %q has unit %q, BENCHMARK.json says %q", m.name, m.unit, unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("metric %q = %v", m.name, m.value)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("metric %q declared in BENCHMARK.json is not reported", name)
		}
	}
}

func TestSpecMatchesWorkloads(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloadNames))
	}
	for i, sw := range s.Workloads {
		w, err := newWorkload(sw.Name, false)
		if err != nil {
			t.Fatal(err)
		}
		if sw.Name != workloadNames[i] || sw.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, sw.Name, sw.Why, workloadNames[i], w.why)
		}
	}
	if _, err := newWorkload("nope", false); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestSmoke runs every workload at its tiny size through both the
// end-to-end and the traced run. Each run's own gate compares repeated,
// shimmed and obs-off reports, so a passing run also shows the shim
// leaves reports unchanged.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, true)
			if err != nil {
				t.Fatal(err)
			}
			b := &bench{w: w, seed: 7, budget: time.Millisecond, probeTime: time.Millisecond}
			o, err := b.endToEnd()
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || o.attempted < samplesFor(0.9) {
				t.Fatalf("end to end: %d of %d failed: %v", o.failed, o.attempted, o.failures)
			}
			checkMetrics(t, o, e2e)
			for _, m := range o.metrics {
				if m.value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, m.value)
				}
			}
			if testing.Short() {
				return
			}
			// Long enough for the 100 Hz CPU profiler to sample the
			// shimmed experiments: a profile without them is an error.
			b.budget = time.Second
			o, err = b.perLayer()
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 {
				t.Fatalf("traced: %d of %d failed: %v", o.failed, o.attempted, o.failures)
			}
			checkMetrics(t, o, layer)
			var out bytes.Buffer
			if err := o.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			if !res.Correct || res.Attempted != o.attempted || len(res.Metrics) != len(layer) {
				t.Errorf("result line %+v", res)
			}
		})
	}
}

func TestPercentileRule(t *testing.T) {
	n := samplesFor(0.9)
	if n != 100 {
		t.Errorf("samplesFor(0.9) = %d, want 100", n)
	}
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = time.Duration(n-i) * time.Millisecond // reversed: percentile must sort
	}
	v, beyond := percentile(s, 0.9)
	if v != 90*time.Millisecond || beyond != 10 {
		t.Errorf("p90 of 1..100 ms = %v with %d beyond, want 90ms with 10", v, beyond)
	}
	if got, b, err := tail(s, 0.9); err != nil || got != v || b != beyond {
		t.Errorf("tail(100 samples) = %v, %d, %v", got, b, err)
	}
	if _, _, err := tail(s[:n-1], 0.9); err == nil {
		t.Error("tail accepted 99 samples with only 9 beyond p90")
	}
	if m := median([]time.Duration{4, 1, 3, 2}); m != 2 {
		t.Errorf("median of 1..4 = %v, want the lower middle 2", m)
	}
}

func TestGateRejectsTamperedReports(t *testing.T) {
	w, err := newWorkload("raid5-mixed-obs", true)
	if err != nil {
		t.Fatal(err)
	}
	res := w.experiment(expSeed(3, 0), variant{})
	if err := checkReport(res.rep, res.err, w.faults); err != nil {
		t.Fatal(err)
	}
	js, err := reportJSON(res.rep)
	if err != nil {
		t.Fatal(err)
	}

	tampered := *res.rep
	tampered.Completed--
	if checkReport(&tampered, nil, w.faults) == nil {
		t.Error("gate passed a report that loses a request")
	}
	if checkReport(res.rep, nil, w.faults+1) == nil {
		t.Error("gate passed a report short of its fault cycles")
	}
	tjs, err := reportJSON(&tampered)
	if err != nil {
		t.Fatal(err)
	}
	if sameReport(js, tjs) == nil {
		t.Error("gate found a tampered report identical")
	}
	if sameReport(js, append([]byte(nil), js...)) != nil {
		t.Error("gate found a report different from its copy")
	}
	noObs, err := withoutObs(res.rep)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(noObs, js) || bytes.Contains(noObs, []byte(`"obs"`)) {
		t.Error("withoutObs kept the obs section")
	}
}

// pb is a minimal protobuf writer for the profile fixture.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(num int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(num int, vs ...uint64) {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	p.bytes(num, q)
}

// profSample is one fixture sample: function names leaf first, where a
// name list joined by "+" is one location with inlined frames, innermost
// first; traced samples carry the traced-experiment label.
type profSample struct {
	stack  []string
	weight uint64
	traced bool
}

// fixtureProfile encodes samples as a gzipped profile.proto.
func fixtureProfile(t *testing.T, samples []profSample) []byte {
	t.Helper()
	strs := []string{""}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var prof pb
	funcs := map[string]uint64{}
	locs := map[string]uint64{}
	for i, s := range samples {
		var ids []uint64
		for _, frame := range s.stack {
			id, ok := locs[frame]
			if !ok {
				id = uint64(len(locs) + 1)
				locs[frame] = id
				var loc pb
				loc.varint(1, id)
				for _, fn := range strings.Split(frame, "+") {
					fid, ok := funcs[fn]
					if !ok {
						fid = uint64(len(funcs) + 1)
						funcs[fn] = fid
						var f pb
						f.varint(1, fid)
						f.varint(2, str(fn))
						prof.bytes(5, f.b)
					}
					var line pb
					line.varint(1, fid)
					loc.bytes(4, line.b)
				}
				prof.bytes(4, loc.b)
			}
			ids = append(ids, id)
		}
		var smp pb
		if i%2 == 0 {
			smp.packed(1, ids...)
			smp.packed(2, s.weight, s.weight*10_000_000)
		} else {
			for _, id := range ids {
				smp.varint(1, id)
			}
			smp.varint(2, s.weight)
			smp.varint(2, s.weight*10_000_000)
		}
		if s.traced {
			var label pb
			label.varint(1, str(labelKey))
			label.varint(2, str(labelTraced))
			smp.bytes(3, label.b)
		}
		prof.bytes(2, smp.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestCPUAttribution(t *testing.T) {
	const (
		malloc  = "runtime.mallocgc"
		apply   = "powerfail/internal/ssd.(*Device).applyComplete"
		mapped  = "powerfail/internal/ftl.(*FTL).CompleteWrite"
		lpnOf   = "powerfail/internal/addr.LPN.Add"
		write   = "powerfail/internal/dram.(*Cache).Write"
		closure = "powerfail/internal/sim.(*Kernel).Step.func1"
	)
	gz := fixtureProfile(t, []profSample{
		// malloc is charged to its innermost internal caller, the FTL.
		{[]string{malloc, mapped, apply, closure}, 3, true},
		// The inlined addr helper is untracked; the frame it was inlined
		// into, dram, takes the sample.
		{[]string{lpnOf + "+" + write, apply}, 2, true},
		{[]string{closure, "main.main"}, 1, true},
		{[]string{"encoding/json.Marshal", "main.run"}, 2, true},
		// GC workers carry no label but count.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 2, false},
		{[]string{"runtime._GC"}, 1, false},
		// An untraced experiment's samples do not count.
		{[]string{apply, closure}, 5, false},
	})
	share, gc, none, err := cpuShares(gz, labelKey, labelTraced)
	if err != nil {
		t.Fatal(err)
	}
	// 16 samples: 3 GC, 8 traced; the traced ones split the non-GC 13/16.
	gcWant := 3.0 / 16
	per := (1 - gcWant) / 8
	want := map[string]float64{"ftl": 3 * per, "dram": 2 * per, "sim": 1 * per}
	sum := gc + none
	for _, l := range layers {
		sum += share[l]
		if math.Abs(share[l]-want[l]) > 1e-12 {
			t.Errorf("cpu_share.%s = %v, want %v", l, share[l], want[l])
		}
	}
	if math.Abs(gc-gcWant) > 1e-12 || math.Abs(none-2*per) > 1e-12 || math.Abs(sum-1) > 1e-12 {
		t.Errorf("gc %v unattributed %v sum %v, want %v, %v and 1", gc, none, sum, gcWant, 2*per)
	}
	if len(share) != len(layers) {
		keys := make([]string, 0, len(share))
		for k := range share {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		t.Errorf("shares for %v, want exactly %v", keys, layers)
	}
	if _, _, _, err := cpuShares(gz, labelKey, "other"); err == nil {
		t.Error("profile without labelled samples accepted")
	}
	if _, _, _, err := cpuShares(gz[:len(gz)/2], labelKey, labelTraced); err == nil {
		t.Error("truncated profile accepted")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "fleet", "--trace", "2"},
		{"--workload", "fleet", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q", args, code, out.String())
		}
	}
}

func TestHostProbe(t *testing.T) {
	if d, err := probeHost(); err != nil || d <= 0 {
		t.Errorf("probe took %v, error %v", d, err)
	}
	d := 10 * time.Millisecond
	for _, c := range []struct {
		before, after time.Duration
		want          float64 // the host's speed over nominal
	}{
		{refNominal, refNominal, 1},
		{2 * refNominal, 2 * refNominal, 0.5},
		{refNominal, 3 * refNominal, 0.5},
		{refNominal / 2, refNominal / 2, 2},
	} {
		got := atNominal(d, c.before, c.after)
		want := time.Duration(float64(d) * math.Pow(c.want, hostElasticity))
		if diff := got - want; diff < -1 || diff > 1 {
			t.Errorf("between probes of %v and %v, %v scales to %v, want %v", c.before, c.after, d, got, want)
		}
	}
}
