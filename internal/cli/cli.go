// Package cli holds the plumbing shared by the command-line tools in
// cmd/. Main is every command's main: it sets the log prefix, cancels
// the command's context on SIGINT or SIGTERM, prints the command's error
// and exits with ExitCode, which is the contract every command keeps:
// 0 for success and for -h, 1 for a failure, and 2 for a usage error (a
// flag Parse cannot parse, a missing argument, or a value out of range,
// ErrUsage). ClusterFlags registers the common simulated-cluster flags
// (-oss, -device, -stripe-count, ...) and converts them to a pfs.Config,
// Profiles gives entry points the same -cpuprofile/-memprofile pair, and
// ParseSize/ParseDuration accept the human size ("1MB", "256KB") and
// time ("100ms", "2s") literals used uniformly across flags, the iolang
// workload language, and campaign spec files.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/pfs"
)

// ClusterFlags collects the common simulated-cluster flags.
type ClusterFlags struct {
	OSS        int
	OSTsPerOSS int
	Device     string
	MDSThreads int
	IONodes    int
	StripeCnt  int
	StripeSize string
	Seed       int64
}

// Register installs the cluster flags on fs.
func (c *ClusterFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&c.OSS, "oss", 4, "number of object storage servers")
	fs.IntVar(&c.OSTsPerOSS, "osts-per-oss", 2, "OSTs per OSS")
	fs.StringVar(&c.Device, "device", "hdd", "OST device model: hdd, ssd, nvme")
	fs.IntVar(&c.MDSThreads, "mds-threads", 8, "MDS service threads")
	fs.IntVar(&c.IONodes, "ionodes", 0, "I/O forwarding nodes (0 = flat network)")
	fs.IntVar(&c.StripeCnt, "stripe-count", 4, "default stripe count")
	fs.StringVar(&c.StripeSize, "stripe-size", "1MB", "default stripe size")
	fs.Int64Var(&c.Seed, "seed", 42, "simulation seed")
}

// Config converts the flags to a pfs.Config. A count below its range
// (-oss, -osts-per-oss, -mds-threads and -stripe-count below 1, -ionodes
// below 0) or a -stripe-size below 1 byte is an ErrUsage error: the file
// system reads such a value as "use the default".
func (c *ClusterFlags) Config() (pfs.Config, error) {
	cfg := pfs.DefaultConfig()
	for _, f := range []struct {
		name   string
		v, min int
	}{
		{"oss", c.OSS, 1}, {"osts-per-oss", c.OSTsPerOSS, 1}, {"mds-threads", c.MDSThreads, 1},
		{"ionodes", c.IONodes, 0}, {"stripe-count", c.StripeCnt, 1},
	} {
		if f.v < f.min {
			return cfg, fmt.Errorf("%w: -%s must be at least %d, got %d", ErrUsage, f.name, f.min, f.v)
		}
	}
	cfg.NumOSS = c.OSS
	cfg.OSTsPerOSS = c.OSTsPerOSS
	cfg.MDSThreads = c.MDSThreads
	cfg.NumIONodes = c.IONodes
	cfg.DefaultStripeCount = c.StripeCnt
	ss, err := SizeAtLeast("stripe-size", c.StripeSize, 1)
	if err != nil {
		return cfg, err
	}
	cfg.DefaultStripeSize = ss
	if cfg.OSTDevice = blockdev.Preset(strings.ToLower(c.Device)); cfg.OSTDevice == nil {
		return cfg, fmt.Errorf("unknown device model %q", c.Device)
	}
	return cfg, nil
}

// ErrUsage marks a command line the command cannot run: a flag Parse
// cannot parse, a missing or extra argument, a flag combination the
// command rejects, or a value out of range. Commands exit 2 on it.
var ErrUsage = errors.New("usage")

// RequirePositive returns an ErrUsage error naming the first of the named
// integer flags of fs whose value is below 1. The workload configs read a
// count below 1 as "use the default", and the MPI world rejects an empty
// one, so a command must not pass such a value on.
func RequirePositive(fs *flag.FlagSet, names ...string) error {
	for _, name := range names {
		v := fs.Lookup(name).Value.String()
		if n, err := strconv.ParseInt(v, 10, 64); err != nil || n < 1 {
			return fmt.Errorf("%w: -%s must be at least 1, got %s", ErrUsage, name, v)
		}
	}
	return nil
}

// ExitCode is the status a command exits with after err: 0 for nil and
// for flag.ErrHelp (a -h request), 2 for an ErrUsage error (a command
// line the command cannot run), and 1 otherwise.
func ExitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, ErrUsage):
		return 2
	}
	return 1
}

// SizeAtLeast parses s, the value of the size flag -name (ParseSize), and
// returns an ErrUsage error when it is below min bytes. The workload
// configs read a size below 1 as "use the default", so a command must not
// pass such a value on.
func SizeAtLeast(name, s string, min int64) (int64, error) {
	n, err := ParseSize(s)
	if err != nil {
		return 0, err
	}
	if n < min {
		return 0, fmt.Errorf("%w: -%s must be at least %dB, got %s", ErrUsage, name, min, s)
	}
	return n, nil
}

// ParseSize parses a byte size with optional B/KB/MB/GB suffix.
func ParseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	upper := strings.ToUpper(s)
	switch {
	case strings.HasSuffix(upper, "GB"):
		mult, s = 1<<30, s[:len(s)-2]
	case strings.HasSuffix(upper, "MB"):
		mult, s = 1<<20, s[:len(s)-2]
	case strings.HasSuffix(upper, "KB"):
		mult, s = 1<<10, s[:len(s)-2]
	case strings.HasSuffix(upper, "B"):
		s = s[:len(s)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %w", s, err)
	}
	return n * mult, nil
}

// FormatSize renders a byte count human-readably.
func FormatSize(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// ParseDuration parses a simulated duration with ns/us/ms/s suffix
// (bare numbers are seconds).
func ParseDuration(s string) (des.Time, error) {
	s = strings.TrimSpace(s)
	var v float64
	var unit string
	if _, err := fmt.Sscanf(s, "%g%s", &v, &unit); err != nil {
		if _, err2 := fmt.Sscanf(s, "%g", &v); err2 != nil {
			return 0, fmt.Errorf("bad duration %q", s)
		}
		unit = "s"
	}
	switch unit {
	case "ns":
		return des.Time(v), nil
	case "us":
		return des.Time(v * float64(des.Microsecond)), nil
	case "ms":
		return des.Time(v * float64(des.Millisecond)), nil
	case "s":
		return des.Time(v * float64(des.Second)), nil
	}
	return 0, fmt.Errorf("bad duration unit %q in %q", unit, s)
}
