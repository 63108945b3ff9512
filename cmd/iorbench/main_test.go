package main

import (
	"bytes"
	"testing"

	"pioeval/internal/golden"
)

// TestGoldenDefault pins the default-flag output byte for byte — the
// exact text a user sees running iorbench with no arguments. The
// simulation promises per-seed determinism; this is the end-to-end check
// of that promise plus the formatting layer. Regenerate deliberately with
//
//	go test ./cmd/iorbench -update-golden
func TestGoldenDefault(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if errb.Len() != 0 {
		t.Errorf("run wrote to stderr: %q", errb.String())
	}
	golden.Check(t, "testdata/default_golden.txt", out.String())
}

// TestGoldenSharedStridedRead pins a loaded configuration: shared file,
// strided pattern, collective I/O, read-back phase.
func TestGoldenSharedStridedRead(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-ranks", "8", "-block", "1MB", "-transfer", "64KB",
		"-shared", "-pattern", "strided", "-collective", "-read", "-device", "ssd"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	golden.Check(t, "testdata/shared_strided_golden.txt", out.String())
}

// TestRunStableAcrossRuns guards the golden files themselves: two
// in-process runs must already agree, so a future divergence against
// testdata is a determinism break, not flakiness.
func TestRunStableAcrossRuns(t *testing.T) {
	once := func() string {
		var out, errb bytes.Buffer
		if err := run([]string{"-read"}, &out, &errb); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	if once() != once() {
		t.Fatal("same-flag iorbench runs diverge")
	}
}

// TestBadFlagsError covers rejection paths through run.
func TestBadFlagsError(t *testing.T) {
	for _, args := range [][]string{
		{"-pattern", "zigzag"},
		{"-block", "huge"},
		{"-device", "tape"},
	} {
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
