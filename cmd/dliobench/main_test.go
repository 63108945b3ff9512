package main

import (
	"bytes"
	"strings"
	"testing"

	"pioeval/internal/golden"
)

// TestGoldenDefault pins the default run (dataset generation, two
// shuffled epochs, read throughput) byte for byte. Regenerate deliberately
// with
//
//	go test ./cmd/dliobench -update-golden
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

// TestRunUsageErrors: an unknown flag exits 2, and an unparsable size,
// duration or device exits 1; each names the problem on stderr and prints
// nothing on stdout.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-sample-size", "lots"}, 1, "dliobench:"},
		{[]string{"-compute", "soon"}, 1, "dliobench:"},
		{[]string{"-device", "tape"}, 1, "dliobench:"},
		{[]string{"-workers", "0"}, 2, "dliobench: usage: -workers must be at least 1"},
		{[]string{"-epochs", "-1"}, 2, "dliobench: usage: -epochs must be at least 1"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != tc.code {
			t.Errorf("run %q: exit %d, want %d", tc.args, code, tc.code)
		}
		if out.Len() != 0 || !strings.Contains(errb.String(), tc.msg) {
			t.Errorf("run %q: stdout %q, stderr %q; want no output and %q", tc.args, out.String(), errb.String(), tc.msg)
		}
	}
}
