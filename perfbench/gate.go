package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"powerfail"
)

// checkReport is the per-experiment correctness gate: the experiment ran
// without error (a MaxSimTime overrun is an error), completed every fault
// cycle it asked for, and conserved requests. Simulated IO errors and
// data losses are model output, not failures.
func checkReport(rep *powerfail.Report, err error, wantFaults int) error {
	if err != nil {
		return err
	}
	if rep == nil {
		return fmt.Errorf("no report")
	}
	if rep.Faults != wantFaults {
		return fmt.Errorf("completed %d of %d fault cycles", rep.Faults, wantFaults)
	}
	if got := rep.Completed + rep.Errored + rep.NotIssued; rep.Requests != got {
		return fmt.Errorf("requests %d != completed %d + errored %d + not issued %d",
			rep.Requests, rep.Completed, rep.Errored, rep.NotIssued)
	}
	return nil
}

// reportJSON is the byte form reports are compared and hashed in.
func reportJSON(rep *powerfail.Report) ([]byte, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("marshal report: %w", err)
	}
	return b, nil
}

// sameReport fails unless two runs of one experiment gave byte-identical
// reports.
func sameReport(want, got []byte) error {
	if bytes.Equal(want, got) {
		return nil
	}
	n := 0
	for n < len(want) && n < len(got) && want[n] == got[n] {
		n++
	}
	return fmt.Errorf("reports differ from byte %d (%d vs %d bytes)", n, len(want), len(got))
}

// withoutObs returns the report's JSON with its observability section
// removed, the form an obs-on report must share with its obs-off twin.
func withoutObs(rep *powerfail.Report) ([]byte, error) {
	cp := *rep
	cp.Obs = nil
	return reportJSON(&cp)
}
