package main

import (
	"bytes"
	"strings"
	"testing"

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
		if code := run(nil, &out, &errb); code != 0 {
			t.Fatalf("run: exit %d (stderr: %s)", code, errb.String())
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

// TestRunUsageErrors: an unknown flag exits 2 and an unknown device exits
// 1; each names the problem on stderr and prints nothing on stdout.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-device", "tape"}, 1, "facility:"},
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
