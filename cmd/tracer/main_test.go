package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pioeval/internal/golden"
)

// TestRoundTripTrace is the record half of the tracer→replayer round
// trip. tracer records testdata/roundtrip.iol twice, as a binary trace and
// as a JSON trace with the characterization report; its output and both
// trace files must match the goldens byte for byte. The trace goldens are
// what cmd/replayer's round-trip test replays, so together the two tests
// pin replayer(tracer(script)). Regenerate deliberately with
//
//	go test ./cmd/tracer ./cmd/replayer -update-golden
func TestRoundTripTrace(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	for _, tc := range []struct {
		file  string
		flags []string
	}{
		{"roundtrip.piot", nil},
		{"roundtrip.json", []string{"-json", "-report"}},
	} {
		args := append(append([]string{"-o", filepath.Join(dir, tc.file)}, tc.flags...), "testdata/roundtrip.iol")
		out.WriteString("$ tracer " + strings.Join(args, " ") + "\n")
		var errb bytes.Buffer
		if err := run(context.Background(), args, &out, &errb); err != nil {
			t.Fatalf("tracer %v: %v (stderr: %s)", args, err, errb.String())
		}
		if errb.Len() != 0 {
			t.Errorf("tracer %v wrote to stderr: %q", args, errb.String())
		}
		got, err := os.ReadFile(filepath.Join(dir, tc.file))
		if err != nil {
			t.Fatal(err)
		}
		golden.Check(t, filepath.Join("testdata", tc.file), string(got))
	}
	golden.Check(t, "testdata/tracer_golden.txt", strings.ReplaceAll(out.String(), dir, "$DIR"))
}

// TestBadArgsError covers rejection paths through run.
func TestBadArgsError(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"testdata/missing.iol"},
		{"-device", "tape", "testdata/roundtrip.iol"},
		{"-o", filepath.Join(t.TempDir(), "no", "such", "dir.piot"), "testdata/roundtrip.iol"},
	} {
		var out, errb bytes.Buffer
		if err := run(context.Background(), args, &out, &errb); err == nil {
			t.Errorf("run(context.Background(), %v) succeeded, want error", args)
		}
	}
}
