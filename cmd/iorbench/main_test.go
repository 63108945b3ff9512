package main

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"pioeval/internal/cli"
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
	if err := run(context.Background(), nil, &out, &errb); err != nil {
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
	if err := run(context.Background(), args, &out, &errb); err != nil {
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
		if err := run(context.Background(), []string{"-read"}, &out, &errb); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	if once() != once() {
		t.Fatal("same-flag iorbench runs diverge")
	}
}

// TestBadFlagsError covers rejection paths through run. A count below
// one is a usage error (exit 2), not a panic or a silent default.
func TestBadFlagsError(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		usage bool
	}{
		{[]string{"-pattern", "zigzag"}, false},
		{[]string{"-block", "huge"}, false},
		{[]string{"-device", "tape"}, false},
		{[]string{"-ranks", "-3"}, true},
		{[]string{"-segments", "0"}, true},
		{[]string{"-block", "0B"}, true},
		{[]string{"-transfer", "-1MB"}, true},
		{[]string{"-oss", "0"}, true},
		{[]string{"-stripe-size", "0"}, true},
	} {
		var out, errb bytes.Buffer
		err := run(context.Background(), tc.args, &out, &errb)
		if err == nil {
			t.Errorf("run(context.Background(), %v) succeeded, want error", tc.args)
			continue
		}
		if errors.Is(err, cli.ErrUsage) != tc.usage || out.Len() != 0 {
			t.Errorf("run(context.Background(), %v): %v, stdout %q; want a usage error %v and no output", tc.args, err, out.String(), tc.usage)
		}
	}
}
