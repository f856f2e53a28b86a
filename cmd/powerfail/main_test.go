package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes a re-executed test binary run the command instead of
// the tests, so a test can check the command's exit status.
const runMainEnv = "POWERFAIL_CMD_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagValues runs the command on each argument list and checks its
// exit status: a flag value it cannot honour exits 2 before any
// experiment runs, rather than being ignored or replaced by a default.
func TestFlagValues(t *testing.T) {
	small := []string{"-faults", "1", "-requests-per-fault", "2", "-wss", "1"}
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-pattern", "bogus"}, 2},
		{[]string{"-size", "-4096"}, 2},
		{[]string{"-window-delay", "-5ms"}, 2},
		{[]string{"-sequence", "XAX"}, 2},
		{[]string{"-profile", "Z"}, 2},
		{[]string{"-pattern", "Sequential", "-size", "4096", "-window-delay", "0s"}, 0},
	} {
		cmd := exec.Command(os.Args[0], append(small, tc.args...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		code := 0
		if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != tc.code {
			t.Errorf("powerfail %s exited %d, want %d:\n%s", strings.Join(tc.args, " "), code, tc.code, out)
		}
	}
}
