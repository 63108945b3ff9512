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

// TestGoldenDefault pins the default facility run byte for byte: summary,
// per-kind read fractions in kind order, job log and interfering pairs.
// The run repeats so that an order taken from map iteration shows as a
// difference between runs. Regenerate deliberately with
//
//	go test ./cmd/facility -update-golden
func TestGoldenDefault(t *testing.T) {
	var first string
	for i := 0; i < 5; i++ {
		var out, errb bytes.Buffer
		if err := run(context.Background(), nil, &out, &errb); err != nil {
			t.Fatalf("run: %v (stderr: %s)", err, errb.String())
		}
		if errb.Len() != 0 {
			t.Errorf("run wrote to stderr: %q", errb.String())
		}
		if i == 0 {
			first = out.String()
		} else if out.String() != first {
			t.Fatalf("run %d differs from the first:\n%s\nwant:\n%s", i, out.String(), first)
		}
	}
	golden.Check(t, "testdata/default_golden.txt", first)
}

// TestRunUsageErrors: an out-of-range cluster flag and a positional
// argument are usage errors (exit 2) and an unknown device exits 1; each
// error names the problem, and nothing is printed.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-device", "tape"}, 1, `unknown device model "tape"`},
		{[]string{"-mds-threads", "0"}, 2, "usage: -mds-threads must be at least 1, got 0"},
		{[]string{"stray"}, 2, "usage: unexpected arguments: [stray]"},
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
