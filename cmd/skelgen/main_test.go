package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden outputs")

// checkGolden compares got against the named testdata file byte for byte,
// rewriting it under -update-golden, and reports the first diverging line
// on mismatch.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("output diverges at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output length differs: got %d lines, want %d", len(gl), len(wl))
}

// roundtrip is the committed binary trace of the tracer round-trip test:
// four ranks of a small checkpoint-and-read workload.
const roundtrip = "../tracer/testdata/roundtrip.piot"

// TestGoldenSkeletons pins the per-rank compression summary byte for
// byte. Regenerate deliberately with
//
//	go test ./cmd/skelgen -update-golden
func TestGoldenSkeletons(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{roundtrip}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if errb.Len() != 0 {
		t.Errorf("run wrote to stderr: %q", errb.String())
	}
	checkGolden(t, "testdata/skeletons_golden.txt", out.String())
}

// TestGoldenEmit pins the summary with each rank's generated Go source.
func TestGoldenEmit(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-emit", roundtrip}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "testdata/emit_golden.txt", out.String())
}

// TestUsageErrors: no trace file is the usage error, and two trace files,
// an unknown flag and a missing file are errors too.
func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, &out, &errb); err == nil || err.Error() != "usage: skelgen [flags] <trace file>" {
		t.Errorf("run() = %v, want the usage error", err)
	}
	for _, args := range [][]string{
		{roundtrip, roundtrip},
		{"-fold", roundtrip},
		{"testdata/no-such-trace.piot"},
	} {
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("run(%q) succeeded, want error", args)
		}
	}
}
