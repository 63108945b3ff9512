// Command campaign runs a parameter-sweep experiment campaign: it expands
// a declarative spec (see internal/campaign.ParseSpec for the format) into
// a cartesian grid of simulation runs, executes them in parallel with live
// progress and ETA on stderr, and emits per-point distribution summaries
// as a table (stdout), JSON (the repository's BENCH_*.json perf-trajectory
// format), and CSV.
//
// With no spec file argument it runs the built-in baseline grid — the
// 48-point sweep recorded in BENCH_campaign.json:
//
//	campaign -json BENCH_campaign.json
//	campaign -workers 8 -reps 5 sweep.campaign
//	campaign -points sweep.campaign          # list the grid, run nothing
//
// The first SIGINT or SIGTERM cancels the grid: the runs that finished
// are aggregated and emitted whole as a partial report, and the command
// exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"pioeval/internal/campaign"
	"pioeval/internal/cli"
)

// defaultSpec is the built-in baseline grid: 48 points spanning device
// models, stripe counts, transfer sizes, and access patterns at two rank
// counts, three repetitions each.
const defaultSpec = `
campaign "baseline-grid" {
    workload ior
    seed 42
    reps 3
    ranks 2, 4
    device hdd, ssd, nvme
    stripe-count 1, 4
    block-size 4MB
    transfer-size 256KB, 1MB
    pattern sequential, random
}
`

func main() { cli.Main("campaign", run) }

// run is the whole command behind a testable seam: flags come from args,
// all output goes to the supplied writers, and failures return as errors
// instead of exiting. The golden test drives it with a bytes.Buffer.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workers := fs.Int("workers", 0, "simultaneous simulations (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", -1, "override the spec's campaign seed (-1 = keep)")
	reps := fs.Int("reps", 0, "override the spec's repetitions (0 = keep)")
	jsonOut := fs.String("json", "", "write the aggregated report as JSON to this file (- for stdout)")
	csvOut := fs.String("csv", "", "write per-point summaries as CSV to this file (- for stdout)")
	listOnly := fs.Bool("points", false, "print the expanded grid and exit without running")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	var prof cli.Profiles
	prof.Register(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if fs.NArg() > 1 {
		return fmt.Errorf("%w: at most one spec file argument", cli.ErrUsage)
	}
	return prof.Run(func() error {
		src := defaultSpec
		if fs.NArg() == 1 {
			b, err := os.ReadFile(fs.Arg(0))
			if err != nil {
				return err
			}
			src = string(b)
		}
		spec, err := campaign.ParseSpec(src)
		if err != nil {
			return err
		}
		if *seed >= 0 {
			spec.Seed = *seed
		}
		if *reps > 0 {
			spec.Reps = *reps
		}
		if err := spec.Validate(); err != nil {
			return err
		}

		points := spec.Expand()
		if *listOnly {
			for _, p := range points {
				fmt.Fprintf(stdout, "point %3d: %s\n", p.ID, p.Label())
			}
			fmt.Fprintf(stdout, "%d points x %d reps = %d runs\n", len(points), max(spec.Reps, 1), len(points)*max(spec.Reps, 1))
			return nil
		}

		opt := campaign.Options{Workers: *workers}
		if !*quiet {
			opt.OnProgress = func(p campaign.Progress) {
				fmt.Fprintf(stderr, "\rrun %d/%d (%.0f%%) elapsed %v eta %v    ",
					p.Done, p.Total, 100*float64(p.Done)/float64(p.Total),
					p.Elapsed.Round(10_000_000), p.ETA.Round(10_000_000))
				if p.Done == p.Total {
					fmt.Fprintln(stderr)
				}
			}
		}
		rep, err := campaign.RunContext(ctx, spec, opt)
		if err != nil {
			return err
		}
		if rep.Cancelled {
			fmt.Fprintf(stderr, "interrupted: emitting partial results (%d/%d runs)\n",
				rep.CompletedRuns(), len(rep.Runs))
		}
		for _, je := range rep.Errors {
			fmt.Fprintf(stderr, "run %d (point %d, rep %d) panicked: %s\n", je.Run, je.Point, je.Rep, je.Msg)
		}

		printSummary(stdout, rep)
		if *jsonOut != "" {
			if err := writeTo(*jsonOut, stdout, rep.WriteJSON); err != nil {
				return err
			}
		}
		if *csvOut != "" {
			if err := writeTo(*csvOut, stdout, rep.WriteCSV); err != nil {
				return err
			}
		}
		// The partial aggregate has been flushed whole — no truncated files —
		// but an interrupted campaign is still a failed campaign.
		if rep.Cancelled {
			return fmt.Errorf("interrupted after %d/%d runs; partial results emitted", rep.CompletedRuns(), len(rep.Runs))
		}
		return nil
	})
}

// printSummary renders the per-point table: every metric's mean with its
// 95% bootstrap CI.
func printSummary(w io.Writer, rep *campaign.Report) {
	metrics := rep.MetricNames()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "point\tconfiguration\tmetric\tmean\t95%% CI\tp95\n")
	for _, ps := range rep.Points {
		for _, m := range metrics {
			d, ok := ps.Metrics[m]
			if !ok {
				continue
			}
			fmt.Fprintf(tw, "%d\t%s\t%s\t%.4g\t[%.4g, %.4g]\t%.4g\n",
				ps.Point.ID, ps.Point.Label(), m, d.Mean, d.CILo, d.CIHi, d.P95)
		}
	}
	tw.Flush()
}

func writeTo(path string, stdout io.Writer, write func(w io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
