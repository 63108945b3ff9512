package main

import (
	"bytes"
	"context"
	"testing"

	"pioeval/internal/golden"
)

// TestGoldenDefault pins the default model comparison (MAE and RMSE of
// each model on the 48-point test sweep) byte for byte. Regenerate
// deliberately with
//
//	go test ./cmd/predictor -update-golden
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
