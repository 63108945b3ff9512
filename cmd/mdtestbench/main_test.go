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

// TestGoldenDefault pins the default-flag output — the historical
// create/stat/delete phase table — byte for byte. Regenerate
// deliberately with
//
//	go test ./cmd/mdtestbench -update-golden
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

// TestGoldenAllPhases pins the four-phase IO500-shaped configuration:
// per-file payloads written, then stat, read-back, and delete timed.
func TestGoldenAllPhases(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-ranks", "4", "-files", "32", "-write", "3901B",
		"-phases", "create,stat,read,delete"}
	if err := run(context.Background(), args, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	s := out.String()
	for _, ph := range []string{"create", "stat", "read", "delete"} {
		if !strings.Contains(s, ph) {
			t.Errorf("output missing %s phase row:\n%s", ph, s)
		}
	}
	golden.Check(t, "testdata/all_phases_golden.txt", s)
}

// TestPhaseSelection: omitted phases must not appear in the table.
func TestPhaseSelection(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-phases", "create,delete"}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && (f[0] == "stat" || f[0] == "read") {
			t.Errorf("unselected phase row leaked into output: %q", line)
		}
	}
}

// TestRunStableAcrossRuns guards the golden files themselves.
func TestRunStableAcrossRuns(t *testing.T) {
	once := func() string {
		var out, errb bytes.Buffer
		if err := run(context.Background(), []string{"-phases", "create,stat,read,delete", "-write", "1KB"}, &out, &errb); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	if once() != once() {
		t.Fatal("same-flag mdtestbench runs diverge")
	}
}

// TestBadFlagsError covers rejection paths through run. A count below
// one is a usage error (exit 2), not a panic or a silent default.
func TestBadFlagsError(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		usage bool
	}{
		{[]string{"-phases", "stat,delete"}, false},   // create is mandatory
		{[]string{"-phases", "create,fsck"}, false},   // unknown phase
		{[]string{"-phases", "create,create"}, false}, // duplicate
		{[]string{"-write", "lots"}, false},
		{[]string{"-device", "tape"}, false},
		{[]string{"-ranks", "0"}, true},
		{[]string{"-files", "-5"}, true},
		{[]string{"-mds-threads", "0"}, true},
		{[]string{"-write", "-1B"}, true},
		{[]string{"-ionodes", "-1"}, true},
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
