package main

import (
	"bytes"
	"strings"
	"testing"

	"pioeval/internal/golden"
)

// TestGoldenDefault pins the default model comparison (MAE and RMSE of
// each model on the 48-point test sweep) byte for byte. Regenerate
// deliberately with
//
//	go test ./cmd/predictor -update-golden
func TestGoldenDefault(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 0 {
		t.Fatalf("run: exit %d (stderr: %s)", code, errb.String())
	}
	if errb.Len() != 0 {
		t.Errorf("run wrote to stderr: %q", errb.String())
	}
	golden.Check(t, "testdata/default_golden.txt", out.String())
}

// TestRunBadFlag: an unknown flag exits 2 with the flag package's message
// and prints nothing on stdout.
func TestRunBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if out.Len() != 0 || !strings.Contains(errb.String(), "flag provided but not defined") {
		t.Errorf("stdout %q, stderr %q", out.String(), errb.String())
	}
}
