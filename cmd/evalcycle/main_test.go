package main

import (
	"bytes"
	"context"
	"testing"

	"pioeval/internal/golden"
)

// TestGoldenCycle pins the three-phase evaluation-cycle report for the
// built-in workload at a fixed seed, byte for byte: characterization
// numbers, model fit coefficients, and the per-iteration prediction
// errors. Regenerate deliberately with
//
//	go test ./cmd/evalcycle -update-golden
func TestGoldenCycle(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-seed", "7", "-iterations", "3"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	golden.Check(t, "testdata/cycle_golden.txt", out.String())
}

// TestGoldenCycleStableAcrossRuns guards the golden file itself: two
// in-process runs must already agree, so a future divergence against
// testdata is a determinism break, not flakiness.
func TestGoldenCycleStableAcrossRuns(t *testing.T) {
	runOnce := func() string {
		var out, errb bytes.Buffer
		if err := run(context.Background(), []string{"-seed", "7", "-iterations", "3"}, &out, &errb); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	if runOnce() != runOnce() {
		t.Fatal("same-seed evalcycle output differs between in-process runs")
	}
}

// TestBadDeviceErrors checks that an unknown device name surfaces as an
// error from run rather than an exit.
func TestBadDeviceErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-baseline", "tape"}, &out, &errb); err == nil {
		t.Fatal("run succeeded with an unknown baseline device")
	}
	if err := run(context.Background(), []string{"-sweep", "hdd,tape"}, &out, &errb); err == nil {
		t.Fatal("run succeeded with an unknown sweep device")
	}
}
