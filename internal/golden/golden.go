// Package golden is a test helper that pins an output byte for byte
// against a committed testdata file. The command tests and the root
// package's simfs transcript use it, so every golden in the repo fails
// the same way on a one-byte change and is rewritten by the same flag.
//
// Usage, in a test:
//
//	golden.Check(t, "testdata/run_golden.txt", out.String())
//
// Run the package's tests with -update-golden to rewrite its goldens
// instead of checking them. Regenerate only on purpose, and review the
// diff before committing it.
package golden

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update-golden", false, "rewrite testdata golden outputs")

// Check compares got against the golden file at path byte for byte,
// rewriting the file instead under -update-golden. On a mismatch it
// reports the first diverging line, or the line counts when one output
// is a prefix of the other.
func Check(t testing.TB, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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
			t.Fatalf("%s: output diverges at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: output length differs: got %d lines, want %d", path, len(gl), len(wl))
}
