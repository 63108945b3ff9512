// Command dliobench runs the DLIO-like deep-learning training I/O
// benchmark: dataset generation followed by shuffled mini-batch epochs.
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

func main() { cli.Main("dliobench", run) }

// run is the whole command: it parses args, writes the report to stdout
// and the flag package's diagnostics to stderr, and returns failures.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
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
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if err := cli.MaxArgs(fs, 0); err != nil {
		return err
	}
	if err := cli.RequirePositive(fs, "workers", "samples", "samples-per-file", "batch", "epochs"); err != nil {
		return err
	}

	cfg, err := cluster.Config()
	if err != nil {
		return err
	}
	sampleSize, err := cli.SizeAtLeast("sample-size", *sampleStr, 1)
	if err != nil {
		return err
	}
	compute, err := cli.ParseDuration(*computeStr)
	if err != nil {
		return err
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
	return nil
}
