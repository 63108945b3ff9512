// Command skelgen compresses a recorded trace into per-rank I/O skeletons
// (loop programs) and emits generated Go benchmark source — the Skel / Hao
// et al. pipeline.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pioeval/internal/cli"
	"pioeval/internal/replay"
	"pioeval/internal/skeleton"
	"pioeval/internal/trace"
)

func main() { cli.Main("skelgen", run) }

// run is the whole command behind a testable seam: flags come from args,
// all output goes to the supplied writers, and failures return as errors
// instead of exiting.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("skelgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	emit := fs.Bool("emit", false, "print generated Go source for each rank")
	noThink := fs.Bool("no-think", false, "drop compute gaps for maximum foldability")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("%w: skelgen [flags] <trace file>", cli.ErrUsage)
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
		return fmt.Errorf("read %s: %w", fs.Arg(0), err)
	}

	quantum := skeleton.ThinkQuantum
	if *noThink {
		quantum = 0
	}
	ranks := len(replay.FromTrace(recs))
	fmt.Fprintf(stdout, "trace: %d records, %d ranks\n", len(recs), ranks)
	for r := 0; r < ranks; r++ {
		rankRecs := trace.ByRank(recs, r)
		toks := skeleton.TokenizeQ(rankRecs, quantum)
		prog := skeleton.Fold(toks)
		prog.Rank = r
		syms := skeleton.TokensToSymbols(toks)
		_, lrs := skeleton.LongestRepeat(syms)
		fmt.Fprintf(stdout, "rank %d: %d ops -> %d nodes (%.1fx compression, longest repeat %d)\n",
			r, len(toks), prog.Size(), prog.CompressionRatio(), lrs)
		if *emit {
			fmt.Fprintln(stdout, prog.RenderGo(fmt.Sprintf("replayRank%d", r)))
		}
	}
	return nil
}
