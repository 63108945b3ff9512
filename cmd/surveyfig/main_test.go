package main

import (
	"bytes"
	"context"
	"testing"

	"pioeval/internal/golden"
)

// TestGoldenFigure pins the Figure 3 tables byte for byte. Regenerate
// deliberately with
//
//	go test ./cmd/surveyfig -update-golden
func TestGoldenFigure(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), nil, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if errb.Len() != 0 {
		t.Errorf("run wrote to stderr: %q", errb.String())
	}
	golden.Check(t, "testdata/figure_golden.txt", out.String())
}

// TestGoldenPapers pins the tables followed by the corpus listing.
func TestGoldenPapers(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-papers"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	golden.Check(t, "testdata/papers_golden.txt", out.String())
}
