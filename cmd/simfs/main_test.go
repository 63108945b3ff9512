package main

import (
	"bytes"
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"pioeval/internal/cli"
	"pioeval/internal/golden"
)

// hostLine matches what a scale run prints about the host rather than
// the simulation: the host-cost line (wall time, event rate, heap and
// allocations per rank).
var hostLine = regexp.MustCompile(`(?m)^  host: .*$`)

// maskHost replaces the host-cost line of out with a fixed placeholder.
func maskHost(out string) string {
	return hostLine.ReplaceAllLiteralString(out, "  host: (masked)")
}

// TestGoldenScale pins the -ranks scale checkpoint's output byte for
// byte, the host line masked (see maskHost): a four-shard run and
// a one-shard run. Both were recorded before the pfs continuation calls
// took a des.Step and a caller-owned Handle, so they hold the scale path
// to the simulated results it had. The one-shard golden keeps its old
// name: it was recorded with -resilient and a fault campaign on the
// command line, which the scale checkpoint never applied and now rejects
// (see TestRunUsageErrors), so the fault-free run prints the same bytes.
// Regenerate deliberately with
//
//	go test ./cmd/simfs -update-golden
func TestGoldenScale(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"testdata/scale_sharded_golden.txt", []string{"-ranks", "2048", "-shards", "4", "-steps", "2"}},
		{"testdata/scale_faults_golden.txt", []string{"-ranks", "2048", "-shards", "1", "-steps", "2"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var out, errb bytes.Buffer
			if err := run(context.Background(), tc.args, &out, &errb); err != nil {
				t.Fatalf("run %q: %v (stderr: %s)", tc.args, err, errb.String())
			}
			if errb.Len() != 0 {
				t.Errorf("run wrote to stderr: %q", errb.String())
			}
			golden.Check(t, tc.golden, maskHost(out.String()))
		})
	}
}

// TestGoldenScript pins the workload-script mode's transcript byte for
// byte on the built-in -validate scenario: on the direct path, on each
// storage tier, under compression, and with a fault campaign, the
// resilience policy and the bandwidth sampler on top. Every run holds
// all invariants. Regenerate deliberately with
//
//	go test ./cmd/simfs -update-golden
func TestGoldenScript(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"testdata/script_validate_golden.txt", []string{"-validate"}},
		{"testdata/script_nodelocal_golden.txt", []string{"-validate", "-tier", "nodelocal"}},
		{"testdata/script_bb_lz_golden.txt", []string{"-validate", "-tier", "bb", "-compress", "lz"}},
		{"testdata/script_faults_golden.txt", []string{"-validate", "-faults", "ostcrash:1@1ms; ostrecover:1@20ms", "-resilient", "-tier", "bb", "-compress", "lz", "-sample"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var out, errb bytes.Buffer
			if err := run(context.Background(), tc.args, &out, &errb); err != nil {
				t.Fatalf("run %q: %v (stderr: %s)", tc.args, err, errb.String())
			}
			if errb.Len() != 0 {
				t.Errorf("run wrote to stderr: %q", errb.String())
			}
			if !strings.Contains(out.String(), "validation: all invariants held") {
				t.Errorf("run %q: invariants did not all hold:\n%s", tc.args, out.String())
			}
			golden.Check(t, tc.golden, out.String())
		})
	}
}

// TestSampleKeepsMakespan: the bandwidth sampler, which outlives the
// workload, does not change the makespan a script run reports.
func TestSampleKeepsMakespan(t *testing.T) {
	first := func(args ...string) string {
		var out, errb bytes.Buffer
		if err := run(context.Background(), args, &out, &errb); err != nil {
			t.Fatalf("run %q: %v (stderr: %s)", args, err, errb.String())
		}
		line, _, _ := strings.Cut(out.String(), "\n")
		return line
	}
	args := []string{"-validate", "-faults", "ostcrash:1@1ms; ostrecover:1@20ms", "-resilient", "-tier", "bb"}
	if got, want := first(append(args, "-sample")...), first(args...); got != want {
		t.Errorf("with -sample: %s\nwithout:     %s", got, want)
	}
}

// TestRunUsageErrors: a run with neither a script nor -ranks or
// -validate, a -ranks run given a fault campaign or the resilience
// policy, which the scale checkpoint does not apply, and runs given a
// count or cluster flag out of range are usage errors (exit 2) that
// name the problem, and nothing is printed.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{nil, 2, "usage: simfs [flags] <workload.iol>"},
		{[]string{"-ranks", "2048", "-shards", "1", "-steps", "2", "-resilient", "-faults", "ostcrash:1@100ms; ostrecover:1@700ms"}, 2, "usage: -faults and -resilient apply to workload scripts"},
		{[]string{"-ranks", "64", "-faults", "ostcrash:1@100ms"}, 2, "usage: -faults and -resilient apply to workload scripts"},
		{[]string{"-ranks", "64", "-resilient"}, 2, "usage: -faults and -resilient apply to workload scripts"},
		{[]string{"-ranks", "-5"}, 2, "usage: -ranks must be at least 1, got -5"},
		{[]string{"-ranks", "8", "-steps", "-2"}, 2, "usage: -steps must be at least 1, got -2"},
		{[]string{"-ranks", "64", "-oss", "0"}, 2, "usage: -oss must be at least 1, got 0"},
		{[]string{"-validate", "-stripe-size", "0B"}, 2, "usage: -stripe-size must be at least 1B, got 0B"},
	} {
		var out, errb bytes.Buffer
		err := run(context.Background(), tc.args, &out, &errb)
		if code := cli.ExitCode(err); code != tc.code {
			t.Errorf("run %q: %v exits %d, want %d", tc.args, err, code, tc.code)
		}
		if out.Len()+errb.Len() != 0 || !strings.Contains(fmt.Sprint(err), tc.msg) {
			t.Errorf("run %q: %v, stdout %q, stderr %q; want no output and %q", tc.args, err, out.String(), errb.String(), tc.msg)
		}
	}
}
