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
const runMainEnv = "SWEEP_CMD_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagValues runs the command on each argument list and checks its
// exit status: a -scale or -parallel it cannot honour exits 2 before
// anything else, -list included, runs.
func TestFlagValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-parallel", "-1"}, 2},
		{[]string{"-scale", "0"}, 2},
		{[]string{"-scale", "NaN"}, 2},
		{[]string{"-parallel", "0"}, 0},
		{[]string{"-parallel", "2", "-scale", "0.5"}, 0},
	} {
		cmd := exec.Command(os.Args[0], append(tc.args, "-list")...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		code := 0
		if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != tc.code {
			t.Errorf("sweep %s -list exited %d, want %d:\n%s", strings.Join(tc.args, " "), code, tc.code, out)
		}
	}
}
