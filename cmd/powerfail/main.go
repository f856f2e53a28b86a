// Command powerfail runs a single power-fault injection experiment against
// a simulated drive and prints the analyzer's report, mirroring the
// paper's test-platform workflow: configure a workload, schedule faults,
// verify checksums, classify failures.
//
// Examples:
//
//	powerfail -profile A -faults 100 -write-pct 100
//	powerfail -profile B -faults 50 -size 4096 -pattern sequential
//	powerfail -profile A -faults 40 -sequence WAW -seed 7
//	powerfail -profile A -faults 30 -window-delay 200ms
//	powerfail -profile A -faults 200 -json > report.json
//	powerfail -profile A -faults 50 -obs      # + sim-time metric dump on stderr
//
// Ctrl-C cancels the experiment; the partial report is still printed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"powerfail"
	"powerfail/cmd/internal/obsflag"
	"powerfail/internal/sim"
)

func main() {
	var (
		profile  = flag.String("profile", "A", "drive under test: A, B, C (Table I) or Q (QLC)")
		seed     = flag.Uint64("seed", 1, "experiment seed (reports reproduce per seed)")
		faults   = flag.Int("faults", 50, "power faults to inject")
		perFault = flag.Int("requests-per-fault", 16, "completed requests between faults")
		wssGB    = flag.Int("wss", 16, "working set size in GB")
		minKB    = flag.Int("min-size", 4, "minimum request size in KB")
		maxKB    = flag.Int("max-size", 1024, "maximum request size in KB")
		sizeB    = flag.Int("size", 0, "fixed request size in bytes (overrides min/max)")
		readPct  = flag.Int("read-pct", 0, "percentage of read requests")
		pattern  = flag.String("pattern", "random", "access pattern: random or sequential")
		sequence = flag.String("sequence", "", "paired accesses: RAR, RAW, WAR or WAW")
		iops     = flag.Float64("iops", 0, "requested IOPS (0 = closed loop)")
		nocache  = flag.Bool("disable-cache", false, "disable the drive's internal write cache")
		supercap = flag.Bool("supercap", false, "equip the drive with power-loss protection")
		window   = flag.Duration("window-delay", 0, "inject faults this long after a request's ACK (Sec. IV-A mode; off unless given)")
		jsonOut  = flag.Bool("json", false, "print the report as JSON")
		obsOn    = obsflag.Register()
	)
	flag.Parse()

	prof, ok := powerfail.ProfileByName(*profile)
	if !ok {
		usageError("unknown profile %q; use A, B, C or Q", *profile)
	}
	if *nocache {
		prof = prof.WithCacheDisabled()
	}
	if *supercap {
		prof = prof.WithSuperCap()
	}

	w := powerfail.Workload{
		Name:     "cli",
		WSSBytes: int64(*wssGB) << 30,
		MinSize:  *minKB << 10,
		MaxSize:  *maxKB << 10,
		ReadPct:  *readPct,
		IOPS:     *iops,
	}
	switch {
	case *sizeB < 0:
		usageError("-size must not be negative, got %d", *sizeB)
	case *sizeB > 0:
		w.FixedSize = *sizeB
		w.MinSize, w.MaxSize = 0, 0
	}
	switch {
	case strings.EqualFold(*pattern, powerfail.SequentialPattern.String()):
		w.Pattern = powerfail.SequentialPattern
	case !strings.EqualFold(*pattern, powerfail.RandomPattern.String()):
		usageError("unknown pattern %q; use random or sequential", *pattern)
	}
	if *sequence != "" {
		for m := powerfail.RAR; m <= powerfail.WAW; m++ {
			if strings.EqualFold(*sequence, m.String()) {
				w.Sequence = m
			}
		}
		if w.Sequence == powerfail.SeqNone {
			usageError("unknown sequence %q", *sequence)
		}
	}

	spec := powerfail.Experiment{
		Name:             "cli",
		Workload:         w,
		Faults:           *faults,
		RequestsPerFault: *perFault,
	}
	flag.Visit(func(f *flag.Flag) { spec.WindowMode = spec.WindowMode || f.Name == "window-delay" })
	if spec.WindowMode {
		if *window < 0 {
			usageError("-window-delay must not be negative, got %v", *window)
		}
		spec.PostACKDelay = sim.Duration(window.Nanoseconds())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := powerfail.Options{Seed: *seed, Profile: prof, Obs: obsflag.Configure(*obsOn)}
	rep, err := powerfail.RunContext(ctx, opts, spec)
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	interrupted := err != nil
	if interrupted {
		fmt.Fprintf(os.Stderr, "interrupted after %d/%d faults; partial report follows\n",
			rep.Faults, spec.Faults)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		fmt.Print(rep)
	}
	if *obsOn {
		// The metric dump goes to stderr so `-json -obs` keeps stdout as
		// pure report JSON (the summary is in the JSON too, as "obs").
		obsflag.Dump(os.Stderr, spec.Name, rep.Obs)
	}
	if interrupted {
		os.Exit(130)
	}
}

// usageError reports a flag value the command cannot honour and exits 2,
// as the flag package does for a malformed one.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "powerfail: "+format+"\n", args...)
	os.Exit(2)
}
