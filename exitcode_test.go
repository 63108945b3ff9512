package pioeval_test

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// usageCases are, per command, command lines that are usage errors other
// than an unknown flag: a missing or extra argument, or a count below its
// range.
var usageCases = map[string][][]string{
	"campaign":    {{"a.campaign", "b.campaign"}},
	"dliobench":   {{"-workers", "0"}, {"stray"}},
	"evalcycle":   {{"-iterations", "0"}, {"a.iol", "b.iol"}},
	"facility":    {{"-oss", "0"}, {"stray"}},
	"io500":       {{"-hard-ops", "0"}, {"stray"}},
	"iorbench":    {{"-ranks", "0"}, {"stray"}},
	"mdtestbench": {{"-files", "0"}, {"stray"}},
	"predictor":   {{"-n", "0"}, {"stray"}},
	"replayer":    {{}},
	"simfs":       {{}},
	"siod":        {{"positional"}},
	"skelgen":     {{}},
	"surveyfig":   {{"stray"}},
	"tracer":      {{}},
}

// TestCommandExitCodes builds every command and runs the binaries, so
// the exit status comes from the real os.Exit path: -h exits 0, an
// unknown flag exits 2 with the flag package's one diagnostic, and a
// usage error exits 2 with a "<command>: usage:" line. None of them
// prints anything on stdout.
func TestCommandExitCodes(t *testing.T) {
	ents, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	var listed []string
	for name := range usageCases {
		listed = append(listed, name)
	}
	sort.Strings(listed)
	if strings.Join(names, " ") != strings.Join(listed, " ") {
		t.Fatalf("commands %v, usage cases for %v", names, listed)
	}

	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		if goTool, err = exec.LookPath("go"); err != nil {
			t.Skip("no go tool to build the commands with")
		}
	}
	bin := t.TempDir()
	if out, err := exec.Command(goTool, "build", "-o", bin, "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			exe := filepath.Join(bin, name)
			check := func(args []string, code int, diag string) {
				t.Helper()
				var stdout, stderr bytes.Buffer
				cmd := exec.Command(exe, args...)
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				got := 0
				if err := cmd.Run(); err != nil {
					var exit *exec.ExitError
					if !errors.As(err, &exit) {
						t.Fatalf("%q: %v", args, err)
					}
					got = exit.ExitCode()
				}
				if got != code || stdout.Len() != 0 || strings.Count(stderr.String(), diag) != 1 {
					t.Errorf("%s %q: exit %d, stdout %q, stderr %q; want exit %d, no output and one %q",
						name, args, got, stdout.String(), stderr.String(), code, diag)
				}
			}
			check([]string{"-h"}, 0, "Usage of "+name+":")
			check([]string{"-nosuch"}, 2, "flag provided but not defined: -nosuch")
			for _, args := range usageCases[name] {
				check(args, 2, name+": usage: ")
			}
		})
	}
}
