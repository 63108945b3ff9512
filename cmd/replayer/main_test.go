package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"pioeval/internal/golden"
)

// traces holds the round-trip fixture: the traces cmd/tracer records from
// its roundtrip.iol and pins byte for byte.
const traces = "../tracer/testdata/"

// TestRoundTripReplay is the replay half of the tracer→replayer round
// trip (see cmd/tracer's TestRoundTripTrace): it replays the recorded
// binary trace plainly, with -timed think time and extrapolated to 8
// ranks, and the JSON trace plainly. The output must match the golden
// byte for byte. Regenerate deliberately with
//
//	go test ./cmd/tracer ./cmd/replayer -update-golden
func TestRoundTripReplay(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{traces + "roundtrip.piot"},
		{"-timed", traces + "roundtrip.piot"},
		{"-extrapolate", "8", traces + "roundtrip.piot"},
		{traces + "roundtrip.json"},
	} {
		out.WriteString("$ replayer " + strings.Join(args, " ") + "\n")
		var errb bytes.Buffer
		if err := run(context.Background(), args, &out, &errb); err != nil {
			t.Fatalf("replayer %v: %v (stderr: %s)", args, err, errb.String())
		}
		if errb.Len() != 0 {
			t.Errorf("replayer %v wrote to stderr: %q", args, errb.String())
		}
	}
	golden.Check(t, traces+"replayer_golden.txt", out.String())
}

// TestBadArgsError covers rejection paths through run.
func TestBadArgsError(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{traces + "missing.piot"},
		{traces + "roundtrip.iol"},
		{"-device", "tape", traces + "roundtrip.piot"},
	} {
		var out, errb bytes.Buffer
		if err := run(context.Background(), args, &out, &errb); err == nil {
			t.Errorf("run(context.Background(), %v) succeeded, want error", args)
		}
	}
}
