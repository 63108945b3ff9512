// Command iorbench runs the IOR-like parameterized bulk-I/O benchmark on a
// simulated parallel file system and prints an IOR-style summary.
//
// Example:
//
//	iorbench -ranks 8 -block 16MB -transfer 1MB -shared -pattern strided -read
package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"pioeval/internal/cli"
	"pioeval/internal/des"
	"pioeval/internal/pfs"
	"pioeval/internal/workload"
)

func main() { cli.Main("iorbench", run) }

// run is the whole command behind a testable seam: flags come from args,
// all output goes to the supplied writers, and failures return as errors
// instead of exiting. The golden test drives it with a bytes.Buffer.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("iorbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cluster cli.ClusterFlags
	cluster.Register(fs)
	ranks := fs.Int("ranks", 4, "MPI ranks")
	blockStr := fs.String("block", "16MB", "per-rank block size per segment")
	transferStr := fs.String("transfer", "1MB", "transfer size per I/O call")
	segments := fs.Int("segments", 1, "segments")
	shared := fs.Bool("shared", false, "one shared file instead of file-per-process")
	patternStr := fs.String("pattern", "sequential", "access pattern: sequential, strided, random")
	readBack := fs.Bool("read", false, "add a read-back phase")
	collective := fs.Bool("collective", false, "use two-phase collective MPI-IO (shared file only)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if err := cli.RequirePositive(fs, "ranks", "segments"); err != nil {
		return err
	}

	cfg, err := cluster.Config()
	if err != nil {
		return err
	}
	block, err := cli.SizeAtLeast("block", *blockStr, 1)
	if err != nil {
		return err
	}
	transfer, err := cli.SizeAtLeast("transfer", *transferStr, 1)
	if err != nil {
		return err
	}
	var pattern workload.Pattern
	switch *patternStr {
	case "sequential":
		pattern = workload.Sequential
	case "strided":
		pattern = workload.Strided
	case "random":
		pattern = workload.Random
	default:
		return fmt.Errorf("unknown pattern %q", *patternStr)
	}

	e := des.NewEngine(cluster.Seed)
	h := workload.NewHarness(e, pfs.New(e, cfg), *ranks, "cn", nil)
	rep := workload.RunIOR(h, workload.IORConfig{
		Ranks: *ranks, BlockSize: block, TransferSize: transfer,
		Segments: *segments, SharedFile: *shared, Pattern: pattern,
		ReadBack: *readBack, Collective: *collective,
	})

	fmt.Fprintf(stdout, "IOR-like benchmark on simulated cluster (%d OSS x %d OST, %s)\n",
		cfg.NumOSS, cfg.OSTsPerOSS, cluster.Device)
	fmt.Fprintf(stdout, "  ranks=%d block=%s transfer=%s segments=%d shared=%v pattern=%s collective=%v\n",
		*ranks, cli.FormatSize(block), cli.FormatSize(transfer), *segments, *shared, pattern, *collective)
	fmt.Fprintf(stdout, "  total data: %s\n", cli.FormatSize(rep.TotalBytes))
	fmt.Fprintf(stdout, "  write: %10.2f MB/s  (%v)\n", rep.WriteMBps, rep.WriteTime)
	if *readBack {
		fmt.Fprintf(stdout, "  read:  %10.2f MB/s  (%v)\n", rep.ReadMBps, rep.ReadTime)
	}
	fmt.Fprintf(stdout, "  makespan: %v\n", rep.Makespan)
	return nil
}
