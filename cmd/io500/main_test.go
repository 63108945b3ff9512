package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"pioeval/internal/cli"
	"pioeval/internal/golden"
)

// tinyArgs is a suite configuration small enough for unit tests.
var tinyArgs = []string{
	"-ranks", "2", "-seed", "42",
	"-easy-block", "1MB", "-easy-xfer", "256KB",
	"-hard-ops", "4", "-easy-files", "8", "-hard-files", "4",
}

// TestGoldenTinySuite pins the full text output of a tiny suite run —
// every [RESULT] line and the [SCORE] line — byte for byte, with the
// invariant checkers armed and the worker-count determinism self-check
// active. Regenerate deliberately with
//
//	go test ./cmd/io500 -update-golden
func TestGoldenTinySuite(t *testing.T) {
	var out, errb bytes.Buffer
	args := append([]string{"-validate", "-workers", "1", "-check-workers", "4"}, tinyArgs...)
	if err := run(context.Background(), args, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if !strings.Contains(out.String(), "validation: all invariants held") {
		t.Errorf("missing validation line:\n%s", out.String())
	}
	golden.Check(t, "testdata/io500_golden.txt", out.String())
}

// TestWorkerCountInvariance runs the suite at several worker counts and
// requires byte-identical JSON — the CLI-level determinism promise.
func TestWorkerCountInvariance(t *testing.T) {
	render := func(workers string) string {
		var out, errb bytes.Buffer
		args := append([]string{"-json", "-workers", workers}, tinyArgs...)
		if err := run(context.Background(), args, &out, &errb); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	base := render("1")
	for _, w := range []string{"2", "8"} {
		if render(w) != base {
			t.Fatalf("suite JSON differs between workers=1 and workers=%s", w)
		}
	}
}

// TestValidateAllTiers smokes every storage tier with invariants armed;
// any violation surfaces as a non-nil error from run.
func TestValidateAllTiers(t *testing.T) {
	for _, tier := range []string{"direct", "bb", "nodelocal"} {
		var out, errb bytes.Buffer
		args := append([]string{"-validate", "-tier", tier}, tinyArgs...)
		if err := run(context.Background(), args, &out, &errb); err != nil {
			t.Fatalf("tier %s: %v\n%s", tier, err, out.String())
		}
	}
}

// TestSurveySmoke sweeps a 2x2x1 grid and checks the analysis and CSV
// table cover all four submissions.
func TestSurveySmoke(t *testing.T) {
	var out, errb bytes.Buffer
	args := append([]string{
		"-survey", "-devices", "hdd,ssd", "-tiers", "direct,nodelocal",
		"-rank-counts", "2", "-csv", "-",
	}, tinyArgs...)
	if err := run(context.Background(), args, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "4 submissions") {
		t.Errorf("survey header missing submission count:\n%s", s)
	}
	if !strings.Contains(s, "bottleneck attribution") {
		t.Errorf("survey output missing bottleneck section:\n%s", s)
	}
	if n := strings.Count(s, "\nindex,device,tier"); n != 0 {
		// header appears once at start of CSV block, counted below
		_ = n
	}
	csvRows := 0
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "0,") || strings.HasPrefix(line, "1,") ||
			strings.HasPrefix(line, "2,") || strings.HasPrefix(line, "3,") {
			csvRows++
		}
	}
	if csvRows != 4 {
		t.Errorf("CSV table has %d submission rows, want 4:\n%s", csvRows, s)
	}
}

// TestBadFlagsError covers rejection paths through run.
func TestBadFlagsError(t *testing.T) {
	cases := [][]string{
		{"-device", "tape"},
		{"-tier", "cloud"},
		{"-easy-block", "1KB", "-easy-xfer", "1MB"},
		{"-survey", "-rank-counts", "0"},
		{"-survey", "-devices", ""},
		{"-easy-block", "one-mb"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if err := run(context.Background(), args, &out, &errb); err == nil {
			t.Errorf("run(context.Background(), %v) succeeded, want error", args)
		}
	}
	// A count below 1 or a size below one byte would select the suite's
	// default; it is a usage error instead, before any output, as is a
	// positional argument, which the command takes none of.
	for _, args := range [][]string{
		{"-ranks", "0"},
		{"-survey", "stray"},
		{"-hard-ops", "-1"},
		{"-easy-block", "0B"},
		{"-stripe-size", "0"},
	} {
		var out, errb bytes.Buffer
		if err := run(context.Background(), args, &out, &errb); !errors.Is(err, cli.ErrUsage) || out.Len() != 0 {
			t.Errorf("run(context.Background(), %v): %v, stdout %q; want a usage error and no output", args, err, out.String())
		}
	}
}
