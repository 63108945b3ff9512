package cli

import (
	"compress/gzip"
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

func startProfiles(t *testing.T, args ...string) *Profiles {
	t.Helper()
	var p Profiles
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	return &p
}

// TestProfilesWritesBoth writes a CPU and a heap profile through the
// helper and checks both are complete.
func TestProfilesWritesBoth(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	p := startProfiles(t, "-cpuprofile", cpu, "-memprofile", mem)
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	readProfile(t, cpu)
	readProfile(t, mem)
	if err := p.Stop(); err != nil {
		t.Errorf("second Stop: %v", err)
	}
}

// TestProfilesHeapErrorKeepsCPUProfile: a heap profile that cannot be
// written is reported, and the CPU profile is still stopped and complete.
func TestProfilesHeapErrorKeepsCPUProfile(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	p := startProfiles(t, "-cpuprofile", cpu, "-memprofile", filepath.Join(dir, "missing", "mem.pprof"))
	if err := p.Stop(); err == nil {
		t.Fatal("Stop succeeded writing a heap profile into a missing directory")
	}
	readProfile(t, cpu)
}

// TestProfilesUnset: without the flags, Start and Stop do nothing.
func TestProfilesUnset(t *testing.T) {
	p := startProfiles(t)
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
}
