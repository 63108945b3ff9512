package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"pioeval/internal/golden"
)

// TestGoldenTinyGrid pins the full CLI output — summary table plus CSV —
// for a 4-point, 2-rep grid, byte for byte. The campaign runner promises
// bit-identical reports at any worker count; this is the end-to-end check
// of that promise plus the formatting layer. Regenerate deliberately with
//
//	go test ./cmd/campaign -update-golden
func TestGoldenTinyGrid(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-quiet", "-csv", "-", "testdata/tiny.campaign"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if errb.Len() != 0 {
		t.Errorf("-quiet run wrote to stderr: %q", errb.String())
	}
	golden.Check(t, "testdata/tiny_golden.txt", out.String())
}

// TestGoldenTinyGridStableAcrossRuns guards the golden file itself: two
// in-process runs must already agree, so a future divergence against
// testdata is a determinism break, not flakiness.
func TestGoldenTinyGridStableAcrossRuns(t *testing.T) {
	runOnce := func(workers string) string {
		var out, errb bytes.Buffer
		if err := run(context.Background(), []string{"-quiet", "-workers", workers, "-csv", "-", "testdata/tiny.campaign"}, &out, &errb); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	if runOnce("1") != runOnce("4") {
		t.Fatal("same-spec campaign output differs between worker counts")
	}
}

// TestPointsListing covers the -points dry-run path: the tiny grid must
// expand to exactly 4 points and run nothing.
func TestPointsListing(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-points", "testdata/tiny.campaign"}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "4 points x 2 reps = 8 runs") {
		t.Fatalf("unexpected -points summary:\n%s", out.String())
	}
}

// TestBadSpecErrors checks that an invalid spec surfaces as an error from
// run rather than an exit.
func TestBadSpecErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"does-not-exist.campaign"}, &out, &errb); err == nil {
		t.Fatal("run succeeded on a missing spec file")
	}
}

// TestInterruptEmitsPartialResults: with the context already cancelled,
// the command must still emit whole (never truncated) summary + CSV
// output for the runs that completed — here zero — and exit non-zero via
// an error, with the partial-results notice on stderr.
func TestInterruptEmitsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	err := run(ctx, []string{"-quiet", "-csv", "-", "testdata/tiny.campaign"}, &out, &errb)
	if err == nil {
		t.Fatal("interrupted campaign exited zero")
	}
	if !strings.Contains(err.Error(), "partial results") {
		t.Fatalf("error %q does not mention partial results", err)
	}
	if !strings.Contains(errb.String(), "interrupted: emitting partial results") {
		t.Fatalf("stderr missing interrupt notice:\n%s", errb.String())
	}
	// The CSV must be complete: header plus one whole row per point.
	csvStart := strings.Index(out.String(), "point,ranks")
	if csvStart < 0 {
		t.Fatalf("no CSV emitted on interrupt:\n%s", out.String())
	}
	csv := strings.TrimRight(out.String()[csvStart:], "\n")
	if rows := strings.Split(csv, "\n"); len(rows) != 1+4 {
		t.Fatalf("partial CSV has %d rows, want header + 4 points:\n%s", len(rows), csv)
	}
}
