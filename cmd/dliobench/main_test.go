package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"pioeval/internal/cli"
	"pioeval/internal/golden"
)

// TestGoldenDefault pins the default run (dataset generation, two
// shuffled epochs, read throughput) byte for byte. Regenerate deliberately
// with
//
//	go test ./cmd/dliobench -update-golden
func TestGoldenDefault(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), nil, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if errb.Len() != 0 {
		t.Errorf("run wrote to stderr: %q", errb.String())
	}
	golden.Check(t, "testdata/default_golden.txt", out.String())
}

// TestRunUsageErrors: a count below 1, a sample size below one byte, an
// out-of-range cluster flag and a positional argument are usage errors
// (exit 2), and an
// unparsable size, duration or device exits 1; each error names the
// problem, and nothing is printed.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-sample-size", "lots"}, 1, `bad size "lots"`},
		{[]string{"-compute", "soon"}, 1, `bad duration "soon"`},
		{[]string{"-device", "tape"}, 1, `unknown device model "tape"`},
		{[]string{"-workers", "0"}, 2, "usage: -workers must be at least 1"},
		{[]string{"-epochs", "-1"}, 2, "usage: -epochs must be at least 1"},
		{[]string{"-sample-size", "0B"}, 2, "usage: -sample-size must be at least 1B, got 0B"},
		{[]string{"-osts-per-oss", "0"}, 2, "usage: -osts-per-oss must be at least 1, got 0"},
		{[]string{"-epochs", "2", "stray"}, 2, "usage: unexpected arguments: [stray]"},
	} {
		var out, errb bytes.Buffer
		err := run(context.Background(), tc.args, &out, &errb)
		if code := cli.ExitCode(err); code != tc.code {
			t.Errorf("run %q: %v exits %d, want %d", tc.args, err, code, tc.code)
		}
		if out.Len()+errb.Len() != 0 || !strings.Contains(fmt.Sprint(err), tc.msg) {
			t.Errorf("run %q: %v, stdout %q, stderr %q; want no output and %q", tc.args, err, out.String(), errb.String(), tc.msg)
		}
	}
}
