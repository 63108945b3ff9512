package cli

import (
	"compress/gzip"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// readProfile fails the test unless path holds a complete pprof profile:
// a gzip stream that decodes to its end. A CPU profile whose writer was
// never stopped is cut short and fails here.
func readProfile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s: %v", filepath.Base(path), err)
	}
	n, err := io.Copy(io.Discard, zr)
	if err != nil {
		t.Fatalf("%s: truncated after %d bytes: %v", filepath.Base(path), n, err)
	}
	if n == 0 {
		t.Fatalf("%s: empty profile", filepath.Base(path))
	}
}

// profiles returns Profiles with its flags parsed from args.
func profiles(t *testing.T, args ...string) *Profiles {
	t.Helper()
	var p Profiles
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &p
}

// TestProfilesWritesBoth writes a CPU and a heap profile around a body
// and checks both are complete; a second Run profiles again, and a
// failing body's error is the one returned.
func TestProfilesWritesBoth(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	p := profiles(t, "-cpuprofile", cpu, "-memprofile", mem)
	ran := false
	if err := p.Run(func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("Run: %v, body ran %v", err, ran)
	}
	readProfile(t, cpu)
	readProfile(t, mem)
	failed := errors.New("body failed")
	if err := p.Run(func() error { return failed }); err != failed {
		t.Errorf("second Run: %v, want the body's error", err)
	}
	readProfile(t, cpu)
	readProfile(t, mem)
}

// TestProfilesHeapErrorKeepsCPUProfile: a heap profile that cannot be
// written is reported unless the body failed first, and the CPU profile
// is still stopped and complete.
func TestProfilesHeapErrorKeepsCPUProfile(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	p := profiles(t, "-cpuprofile", cpu, "-memprofile", filepath.Join(dir, "missing", "mem.pprof"))
	if err := p.Run(func() error { return nil }); err == nil {
		t.Fatal("Run succeeded writing a heap profile into a missing directory")
	}
	readProfile(t, cpu)
	failed := errors.New("body failed")
	if err := p.Run(func() error { return failed }); err != failed {
		t.Errorf("Run: %v, want the body's error first", err)
	}
	readProfile(t, cpu)
}

// TestProfilesUnset: without the flags, Run only runs the body.
func TestProfilesUnset(t *testing.T) {
	ran := false
	if err := profiles(t).Run(func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("Run: %v, body ran %v", err, ran)
	}
}
