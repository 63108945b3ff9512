package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"pioeval/internal/cli"
	"pioeval/internal/leakcheck"
)

// syncBuffer lets the daemon goroutine and the test share a log buffer.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// waitListening waits for the daemon writing to out to report the address
// it listens on, and returns it.
func waitListening(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeLoadtestDrain runs the whole daemon lifecycle in-process: boot
// on an ephemeral port, drive it with the CLI load-test mode (including
// the accounting check), then request a drain and require a clean exit.
func TestServeLoadtestDrain(t *testing.T) {
	leakcheck.Check(t)
	var out syncBuffer
	ctx, stop := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-queue", "8",
			"-workers", "2",
			"-rate", "-1",
			"-drain", "5s",
		}, &out, &out)
	}()

	url := "http://" + waitListening(t, &out)

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	var client bytes.Buffer
	if err := run(context.Background(), []string{
		"-loadtest",
		"-target", url,
		"-n", "120", "-c", "16", "-unique", "8",
		"-poison-every", "11", "-disconnect-every", "13",
		"-check",
	}, &client, &client); err != nil {
		t.Fatalf("loadtest mode: %v\n%s", err, client.String())
	}
	if !strings.Contains(client.String(), "accounting check passed") {
		t.Fatalf("loadtest output missing accounting verdict:\n%s", client.String())
	}

	stop()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not drain and exit:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "drained, exiting") {
		t.Fatalf("missing drain completion line:\n%s", out.String())
	}
}

// TestBadFlags: a positional argument is a usage error naming the
// argument, returned before anything is served or printed.
func TestBadFlags(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"positional"}, &buf, &buf)
	if !errors.Is(err, cli.ErrUsage) || err.Error() != "usage: unexpected arguments: [positional]" || buf.Len() != 0 {
		t.Fatalf("positional argument: %v, output %q; want a usage error and no output", err, buf.String())
	}
}

// TestServeProfiles: -cpuprofile and -memprofile profile a serving daemon
// until it drains, and both files hold complete pprof profiles (gzip
// streams that decode to their end) once run returns.
func TestServeProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var out syncBuffer
	ctx, stop := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-addr", "127.0.0.1:0", "-cpuprofile", cpu, "-memprofile", mem}, &out, &out)
	}()
	waitListening(t, &out)
	stop()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not drain and exit:\n%s", out.String())
	}
	for _, path := range []string{cpu, mem} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
			t.Errorf("%s: %d bytes decoded, error %v; want a complete profile", filepath.Base(path), n, err)
		}
		f.Close()
	}
}
