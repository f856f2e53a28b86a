// Command blkreport is the repository's btt equivalent: it consumes a
// block-layer trace and produces the per-IO dump and summary the paper's
// analyzer is built on. It can also generate a demonstration trace by
// running a short workload against a simulated drive.
//
// Event logs use the unified powerfail-events v2 format (integer-ns
// timestamps, block and structured observability events interleaved on
// one clock; see internal/obs). Stdin is read only in that format: a log
// without its header is an error.
//
// Usage:
//
//	blkreport -demo                 # run a workload, print per-IO dump
//	blkreport -demo -events         # print the unified event log instead
//	blkreport < events.log          # summarize a saved unified event log
//	blkreport -timeline < events.log  # readable timeline of obs events
//	blkreport -validate-chrome f.json # check a Chrome trace-event export
package main

import (
	"flag"
	"fmt"
	"os"

	"powerfail/internal/addr"
	"powerfail/internal/blktrace"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
	"powerfail/internal/obs"
	"powerfail/internal/power"
	"powerfail/internal/sim"
	"powerfail/internal/ssd"
)

func main() {
	demo := flag.Bool("demo", false, "generate a demonstration trace")
	events := flag.Bool("events", false, "with -demo: print the unified event log instead of the per-IO dump")
	timeline := flag.Bool("timeline", false, "print a readable timeline of the structured obs events on stdin")
	validateChrome := flag.String("validate-chrome", "", "validate a Chrome trace-event JSON file and exit")
	flag.Parse()

	if *validateChrome != "" {
		f, err := os.Open(*validateChrome)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		n, err := obs.ValidateChromeTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "blkreport: %s: %v\n", *validateChrome, err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid Chrome trace, %d events\n", *validateChrome, n)
		return
	}

	if *demo {
		runDemo(*events)
		return
	}

	obsEvents, blkEvents, err := obs.ReadUnifiedEvents(os.Stdin)
	must(err)
	if *timeline {
		must(obs.WriteTimeline(os.Stdout, obsEvents))
		return
	}
	if n := len(obsEvents); n > 0 {
		fmt.Printf("obs events=%d (use -timeline for the event timeline)\n", n)
	}
	printSummary(blktrace.Assemble(blkEvents))
}

func runDemo(rawEvents bool) {
	k := sim.New()
	rng := sim.NewRNG(1)
	psu, err := power.New(k, power.DefaultConfig())
	must(err)
	prof := ssd.ProfileA()
	prof.CapacityGB = 4
	dev, err := ssd.New(k, rng, prof, psu)
	must(err)
	tracer := blktrace.NewTracer()
	host, err := blockdev.New(k, dev, tracer, blockdev.DefaultConfig())
	must(err)
	set := obs.NewSet(obs.Config{Metrics: true, Trace: true})
	host.Observe(set.Scope("blockdev"))

	// A short mixed workload, with a power fault in the middle so the
	// dump shows errored and incomplete IOs too.
	for i := 0; i < 12; i++ {
		data := content.Random(rng, 1+rng.Intn(256))
		submitWrite(host, addr.LPN(rng.Intn(1<<18)), data)
	}
	k.RunFor(20 * sim.Millisecond)
	psu.PowerOff()
	for i := 0; i < 4; i++ {
		data := content.Random(rng, 8)
		submitWrite(host, 4096, data)
		k.RunFor(30 * sim.Millisecond)
	}
	k.RunFor(2 * sim.Second)

	if rawEvents {
		must(obs.WriteUnifiedEvents(os.Stdout, set.TraceEvents(), tracer.Events()))
		return
	}
	ios := blktrace.Assemble(tracer.Events())
	must(blktrace.DumpPerIO(os.Stdout, ios))
	fmt.Println()
	printSummary(ios)
}

// submitWrite puts one write of data at lpn on the host queue.
func submitWrite(host *blockdev.Queue, lpn addr.LPN, data content.Data) {
	req := host.NewRequest()
	req.Op = blockdev.OpWrite
	req.LPN = lpn
	req.Pages = data.Pages()
	req.Data = data
	req.Done = func(*blockdev.Request) {}
	host.Submit(req)
}

func printSummary(ios []*blktrace.IO) {
	s := blktrace.Summarize(ios)
	fmt.Printf("ios=%d completed=%d errored=%d timedout=%d rejected=%d reads=%d writes=%d\n",
		s.IOs, s.Completed, s.Errored, s.TimedOut, s.Rejected, s.Reads, s.Writes)
	fmt.Printf("q2c avg=%s max=%s\n", s.AvgQ2C, s.MaxQ2C)
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
