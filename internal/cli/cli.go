// Package cli holds the flag plumbing and value parsing shared by the
// command-line tools in cmd/: ClusterFlags registers the common
// simulated-cluster flags (-oss, -device, -stripe-count, ...) and converts
// them to a pfs.Config, Profiles gives every entry point the same
// -cpuprofile/-memprofile pair, and ParseSize/ParseDuration accept the
// human size ("1MB", "256KB") and time ("100ms", "2s") literals used
// uniformly across flags, the iolang workload language, and campaign spec
// files.
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

// Config converts the flags to a pfs.Config.
func (c *ClusterFlags) Config() (pfs.Config, error) {
	cfg := pfs.DefaultConfig()
	cfg.NumOSS = c.OSS
	cfg.OSTsPerOSS = c.OSTsPerOSS
	cfg.MDSThreads = c.MDSThreads
	cfg.NumIONodes = c.IONodes
	cfg.DefaultStripeCount = c.StripeCnt
	ss, err := ParseSize(c.StripeSize)
	if err != nil {
		return cfg, err
	}
	cfg.DefaultStripeSize = ss
	if cfg.OSTDevice = blockdev.Preset(strings.ToLower(c.Device)); cfg.OSTDevice == nil {
		return cfg, fmt.Errorf("unknown device model %q", c.Device)
	}
	return cfg, nil
}

// ErrUsage marks an error in a command's arguments that the command finds
// after parsing its flags. Commands exit 2 on it, as on a flag they
// cannot parse.
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
