// Command blkreport checks a Chrome trace-event export: the JSON that
// `sweep -trace-out` writes, where each block IO the host queue completed
// is a queue-to-complete span of category blkio. It prints the event
// count of a valid file and exits 1 on a malformed one.
//
// Usage:
//
//	blkreport -validate-chrome f.json
//
// Any other invocation prints this usage and exits 2.
package main

import (
	"flag"
	"fmt"
	"os"

	"powerfail/internal/obs"
)

func main() {
	validateChrome := flag.String("validate-chrome", "", "validate a Chrome trace-event JSON file and exit")
	flag.Parse()
	if *validateChrome == "" || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
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
}
