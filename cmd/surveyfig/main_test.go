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

// TestGoldenFigure pins the Figure 3 tables byte for byte. Regenerate
// deliberately with
//
//	go test ./cmd/surveyfig -update-golden
func TestGoldenFigure(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if errb.Len() != 0 {
		t.Errorf("run wrote to stderr: %q", errb.String())
	}
	checkGolden(t, "testdata/figure_golden.txt", out.String())
}

// TestGoldenPapers pins the tables followed by the corpus listing.
func TestGoldenPapers(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-papers"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "testdata/papers_golden.txt", out.String())
}

// TestBadFlagsError covers rejection through run.
func TestBadFlagsError(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-figure", "4"}, &out, &errb); err == nil {
		t.Error("run accepted an unknown flag")
	}
}
