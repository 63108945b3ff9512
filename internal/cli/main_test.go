package cli

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestParseExitCodes: -h exits 0 and any other parse error exits 2, and
// both are reported by the flag package already, so Main prints neither.
func TestParseExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 0},
		{[]string{"-n", "3"}, 0},
		{[]string{"-h"}, 0},
		{[]string{"-help"}, 0},
		{[]string{"-nosuch"}, 2},
		{[]string{"-n", "many"}, 2},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Int("n", 1, "a count")
		err := Parse(fs, tc.args)
		if got := ExitCode(err); got != tc.code {
			t.Errorf("%q: %v exits %d, want %d", tc.args, err, got, tc.code)
		}
		if err != nil && !errors.As(err, new(reported)) {
			t.Errorf("%q: %v is not marked reported", tc.args, err)
		}
	}
	if err := Reported(fmt.Errorf("%w: x", ErrUsage)); ExitCode(err) != 2 || err.Error() != "usage: x" {
		t.Errorf("Reported usage error: %q exits %d", err, ExitCode(err))
	}
}

// TestMainSignals re-executes the test binary as a command run by Main.
// For a command that watches its context, the first SIGINT cancels the
// context and a second one, sent while the command winds down, kills the
// process; a command that never watches it dies on the first SIGINT.
func TestMainSignals(t *testing.T) {
	switch os.Getenv("CLI_MAIN_HELPER") {
	case "watch":
		Main("helper", func(ctx context.Context, _ []string, stdout, _ io.Writer) error {
			done := ctx.Done()
			fmt.Fprintln(stdout, "ready")
			<-done
			fmt.Fprintln(stdout, "cancelled")
			time.Sleep(20 * time.Second)
			return errors.New("second signal did not kill the process")
		})
	case "ignore":
		Main("helper", func(_ context.Context, _ []string, stdout, _ io.Writer) error {
			fmt.Fprintln(stdout, "ready")
			time.Sleep(20 * time.Second)
			return errors.New("first signal did not kill the process")
		})
	}
	if runtime.GOOS == "windows" {
		t.Skip("no SIGINT delivery on windows")
	}
	for _, tc := range []struct {
		mode  string
		lines []string // printed before each SIGINT
	}{
		{"watch", []string{"ready", "cancelled"}},
		{"ignore", []string{"ready"}},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMainSignals$")
		cmd.Env = append(os.Environ(), "CLI_MAIN_HELPER="+tc.mode)
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		kill := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
		lines := bufio.NewScanner(out)
		for _, want := range tc.lines {
			if !lines.Scan() || strings.TrimSpace(lines.Text()) != want {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("%s: helper printed %q, want %q", tc.mode, lines.Text(), want)
			}
			if err := cmd.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
		}
		err = cmd.Wait()
		kill.Stop()
		ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus)
		if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGINT {
			t.Errorf("%s: helper ended with %v, want death by SIGINT after %d signals", tc.mode, err, len(tc.lines))
		}
	}
}
