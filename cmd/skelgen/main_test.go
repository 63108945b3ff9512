package main

import (
	"bytes"
	"context"
	"testing"

	"pioeval/internal/golden"
)

// roundtrip is the committed binary trace of the tracer round-trip test:
// four ranks of a small checkpoint-and-read workload.
const roundtrip = "../tracer/testdata/roundtrip.piot"

// TestGoldenSkeletons pins the per-rank compression summary byte for
// byte. Regenerate deliberately with
//
//	go test ./cmd/skelgen -update-golden
func TestGoldenSkeletons(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{roundtrip}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if errb.Len() != 0 {
		t.Errorf("run wrote to stderr: %q", errb.String())
	}
	golden.Check(t, "testdata/skeletons_golden.txt", out.String())
}

// TestGoldenEmit pins the summary with each rank's generated Go source.
func TestGoldenEmit(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-emit", roundtrip}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	golden.Check(t, "testdata/emit_golden.txt", out.String())
}

// TestUsageErrors: no trace file is the usage error, and two trace files,
// an unknown flag and a missing file are errors too.
func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), nil, &out, &errb); err == nil || err.Error() != "usage: skelgen [flags] <trace file>" {
		t.Errorf("run(context.Background(), ) = %v, want the usage error", err)
	}
	for _, args := range [][]string{
		{roundtrip, roundtrip},
		{"-fold", roundtrip},
		{"testdata/no-such-trace.piot"},
	} {
		var out, errb bytes.Buffer
		if err := run(context.Background(), args, &out, &errb); err == nil {
			t.Errorf("run(context.Background(), %q) succeeded, want error", args)
		}
	}
}
