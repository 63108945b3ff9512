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

// TestGoldenDefault pins the default model comparison (MAE and RMSE of
// each model on the 48-point test sweep) byte for byte. Regenerate
// deliberately with
//
//	go test ./cmd/predictor -update-golden
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

// TestUsageErrors: a count below 1 and a positional argument, which
// predictor takes none of, are usage errors (exit 2) that name the
// problem, returned before anything is printed.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-n", "0"}, "usage: -n must be at least 1, got 0"},
		{[]string{"stray"}, "usage: unexpected arguments: [stray]"},
	} {
		var out, errb bytes.Buffer
		err := run(context.Background(), tc.args, &out, &errb)
		if code := cli.ExitCode(err); code != 2 {
			t.Errorf("run %q: %v exits %d, want 2", tc.args, err, code)
		}
		if out.Len()+errb.Len() != 0 || !strings.Contains(fmt.Sprint(err), tc.msg) {
			t.Errorf("run %q: %v, stdout %q, stderr %q; want no output and %q", tc.args, err, out.String(), errb.String(), tc.msg)
		}
	}
}
