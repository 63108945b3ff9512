// Command replayer replays a recorded trace against a (possibly different)
// simulated cluster, optionally extrapolating the rank count first — the
// ScalaIOExtrap workflow.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pioeval/internal/cli"
	"pioeval/internal/des"
	"pioeval/internal/pfs"
	"pioeval/internal/replay"
	"pioeval/internal/trace"
)

func main() { cli.Main("replayer", run) }

// run is the whole command behind a testable seam: flags come from args,
// all output goes to the supplied writers, and failures return as errors
// instead of exiting. The round-trip golden test drives it.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("replayer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cluster cli.ClusterFlags
	cluster.Register(fs)
	timed := fs.Bool("timed", false, "preserve recorded inter-op compute time")
	extrapolate := fs.Int("extrapolate", 0, "extrapolate the trace to this many ranks before replay")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if fs.NArg() != 1 {
		return fmt.Errorf("%w: replayer [flags] <trace file>", cli.ErrUsage)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	var recs []trace.Record
	if strings.HasSuffix(fs.Arg(0), ".json") {
		recs, err = trace.ReadJSON(f)
	} else {
		recs, err = trace.ReadBinary(f)
	}
	if err != nil {
		return err
	}

	rankOps := replay.FromTrace(recs)
	fmt.Fprintf(stdout, "loaded %d records (%d ranks)\n", len(recs), len(rankOps))
	if *extrapolate > 0 {
		rankOps, err = replay.Extrapolate(rankOps, *extrapolate)
		if err != nil {
			return fmt.Errorf("extrapolation failed: %w", err)
		}
		fmt.Fprintf(stdout, "extrapolated to %d ranks\n", *extrapolate)
	}

	cfg, err := cluster.Config()
	if err != nil {
		return err
	}
	e := des.NewEngine(cluster.Seed)
	res, err := replay.Run(e, pfs.New(e, cfg), rankOps, replay.Options{Timed: *timed})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replayed %d ops: read %s, wrote %s\n",
		res.Ops, cli.FormatSize(res.BytesRead), cli.FormatSize(res.BytesWritten))
	fmt.Fprintf(stdout, "makespan %v, aggregate bandwidth %.2f MB/s\n",
		res.Makespan, res.Bandwidth()/1e6)
	return nil
}
