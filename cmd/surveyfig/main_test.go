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

// TestGoldenFigure pins the Figure 3 tables byte for byte. Regenerate
// deliberately with
//
//	go test ./cmd/surveyfig -update-golden
func TestGoldenFigure(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), nil, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if errb.Len() != 0 {
		t.Errorf("run wrote to stderr: %q", errb.String())
	}
	golden.Check(t, "testdata/figure_golden.txt", out.String())
}

// TestGoldenPapers pins the tables followed by the corpus listing.
func TestGoldenPapers(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-papers"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	golden.Check(t, "testdata/papers_golden.txt", out.String())
}

// TestUsageErrors: a positional argument, which surveyfig takes none of,
// is a usage error (exit 2) that names the arguments, returned before
// anything is printed.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"stray"}, "usage: unexpected arguments: [stray]"},
		{[]string{"-papers", "a", "b"}, "usage: unexpected arguments: [a b]"},
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
