package cli

import (
	"errors"
	"flag"
	"fmt"
	"testing"
)

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"0":     0,
		"1024":  1024,
		"4KB":   4 << 10,
		"16MB":  16 << 20,
		"2GB":   2 << 30,
		"100B":  100,
		" 8MB ": 8 << 20,
		"3kb":   3 << 10,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "abc", "MB", "1.5MB"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) should error", bad)
		}
	}
}

func TestFormatSize(t *testing.T) {
	cases := map[int64]string{
		100:     "100B",
		4 << 10: "4KB",
		3 << 20: "3MB",
		2 << 30: "2GB",
		1500:    "1500B",
	}
	for in, want := range cases {
		if got := FormatSize(in); got != want {
			t.Errorf("FormatSize(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestClusterFlagsConfig(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var c ClusterFlags
	c.Register(fs)
	if err := fs.Parse([]string{"-oss", "8", "-device", "nvme", "-stripe-size", "4MB"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := c.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumOSS != 8 || cfg.DefaultStripeSize != 4<<20 {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.OSTDevice == nil || cfg.OSTDevice().Name() != "ssd" { // NVMe uses the SSD model type
		t.Errorf("device model = %v", cfg.OSTDevice().Name())
	}

	c.Device = "floppy"
	if _, err := c.Config(); err == nil {
		t.Error("unknown device should error")
	}
	c.Device = "hdd"
	c.StripeSize = "garbage"
	if _, err := c.Config(); err == nil || errors.Is(err, ErrUsage) {
		t.Errorf("bad stripe size: %v, want a parse error", err)
	}
}

// TestClusterFlagsOutOfRange: a count below its range or a stripe size
// below one byte is a usage error naming the flag, never a silent
// default; -ionodes 0 (a flat network) is in range.
func TestClusterFlagsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-oss", "0"}, "usage: -oss must be at least 1, got 0"},
		{[]string{"-osts-per-oss", "-2"}, "usage: -osts-per-oss must be at least 1, got -2"},
		{[]string{"-mds-threads", "0"}, "usage: -mds-threads must be at least 1, got 0"},
		{[]string{"-ionodes", "-1"}, "usage: -ionodes must be at least 0, got -1"},
		{[]string{"-stripe-count", "0"}, "usage: -stripe-count must be at least 1, got 0"},
		{[]string{"-stripe-size", "0B"}, "usage: -stripe-size must be at least 1B, got 0B"},
		{nil, ""},
		{[]string{"-ionodes", "0"}, ""},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		var c ClusterFlags
		c.Register(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		_, err := c.Config()
		if got := fmt.Sprint(err); tc.msg == "" && err != nil || tc.msg != "" && (!errors.Is(err, ErrUsage) || got != tc.msg) {
			t.Errorf("%q: %v, want %q", tc.args, err, tc.msg)
		}
	}
}

// TestSizeAtLeast: a size below the minimum is a usage error, an
// unparsable one a plain error, and ExitCode maps them to 2 and 1.
func TestSizeAtLeast(t *testing.T) {
	if n, err := SizeAtLeast("block", "4KB", 1); n != 4<<10 || err != nil {
		t.Errorf("4KB: %d, %v", n, err)
	}
	if n, err := SizeAtLeast("write", "0B", 0); n != 0 || err != nil {
		t.Errorf("0B at least 0: %d, %v", n, err)
	}
	_, err := SizeAtLeast("block", "0B", 1)
	if !errors.Is(err, ErrUsage) || err.Error() != "usage: -block must be at least 1B, got 0B" {
		t.Errorf("0B at least 1: %v", err)
	}
	if ExitCode(err) != 2 {
		t.Errorf("ExitCode(%v) = %d, want 2", err, ExitCode(err))
	}
	_, err = SizeAtLeast("block", "huge", 1)
	if err == nil || errors.Is(err, ErrUsage) || ExitCode(err) != 1 {
		t.Errorf("huge: %v (exit %d), want a parse error exiting 1", err, ExitCode(err))
	}
	if ExitCode(nil) != 0 {
		t.Errorf("ExitCode(nil) = %d", ExitCode(nil))
	}
}

// TestMaxArgs: positional arguments past the first n are a usage error
// listing them; up to n are not.
func TestMaxArgs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		n    int
		want string
	}{
		{nil, 0, ""},
		{[]string{"-v", "a"}, 1, ""},
		{[]string{"a"}, 0, "usage: unexpected arguments: [a]"},
		{[]string{"a", "b", "c"}, 1, "usage: unexpected arguments: [b c]"},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.Bool("v", false, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := MaxArgs(fs, tc.n)
		if tc.want == "" && err != nil || tc.want != "" && (!errors.Is(err, ErrUsage) || err.Error() != tc.want) {
			t.Errorf("%q at most %d: %v, want %q", tc.args, tc.n, err, tc.want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	cases := map[string]int64{
		"100ns": 100,
		"5us":   5000,
		"2ms":   2e6,
		"1.5s":  1.5e9,
		"3":     3e9,
	}
	for in, want := range cases {
		got, err := ParseDuration(in)
		if err != nil || int64(got) != want {
			t.Errorf("ParseDuration(%q) = %d, %v; want %d", in, int64(got), err, want)
		}
	}
	for _, bad := range []string{"", "fast", "5parsecs"} {
		if _, err := ParseDuration(bad); err == nil {
			t.Errorf("ParseDuration(%q) should error", bad)
		}
	}
}
