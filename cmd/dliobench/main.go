// Command dliobench runs the DLIO-like deep-learning training I/O
// benchmark: dataset generation followed by shuffled mini-batch epochs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pioeval/internal/cli"
	"pioeval/internal/des"
	"pioeval/internal/pfs"
	"pioeval/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the report to stdout
// and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dliobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cluster cli.ClusterFlags
	cluster.Register(fs)
	workers := fs.Int("workers", 4, "data-loader workers")
	samples := fs.Int("samples", 2048, "dataset samples")
	sampleStr := fs.String("sample-size", "128KB", "bytes per sample")
	perFile := fs.Int("samples-per-file", 256, "samples packed per dataset file")
	batch := fs.Int("batch", 32, "mini-batch size")
	epochs := fs.Int("epochs", 2, "training epochs")
	noShuffle := fs.Bool("no-shuffle", false, "disable per-epoch shuffling")
	computeStr := fs.String("compute", "0s", "compute time per batch (e.g. 5ms)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dliobench: %v\n", err)
		return cli.ExitCode(err)
	}
	if err := cli.RequirePositive(fs, "workers", "samples", "samples-per-file", "batch", "epochs"); err != nil {
		return fail(err)
	}

	cfg, err := cluster.Config()
	if err != nil {
		return fail(err)
	}
	sampleSize, err := cli.SizeAtLeast("sample-size", *sampleStr, 1)
	if err != nil {
		return fail(err)
	}
	compute, err := cli.ParseDuration(*computeStr)
	if err != nil {
		return fail(err)
	}

	e := des.NewEngine(cluster.Seed)
	h := workload.NewHarness(e, pfs.New(e, cfg), *workers, "worker", nil)
	rep := workload.RunDL(h, workload.DLConfig{
		Workers: *workers, Samples: *samples, SampleSize: sampleSize,
		SamplesPerFile: *perFile, BatchSize: *batch, Epochs: *epochs,
		Shuffle: !*noShuffle, ComputePerBatch: compute,
	})

	fmt.Fprintf(stdout, "DLIO-like benchmark: %d samples x %s, %d workers, %d epochs, shuffle=%v\n",
		*samples, cli.FormatSize(sampleSize), *workers, *epochs, !*noShuffle)
	fmt.Fprintf(stdout, "  dataset generation: %v\n", rep.GenTime)
	for i, d := range rep.EpochTime {
		fmt.Fprintf(stdout, "  epoch %d: %v\n", i, d)
	}
	fmt.Fprintf(stdout, "  read throughput: %.2f MB/s (%.0f samples/s)\n", rep.ReadMBps, rep.SamplesPerSec)
	return 0
}
