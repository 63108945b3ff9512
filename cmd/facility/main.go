// Command facility simulates a whole computing facility: a scheduled job
// stream with a mixed workload executing over the shared parallel file
// system, analyzed the way storage-system-level studies do — read/write
// mix, scheduler utilization, and interference, all from generated logs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"pioeval/internal/cli"
	"pioeval/internal/facility"
)

func main() { cli.Main("facility", run) }

// run is the whole command: it parses args, writes the report to stdout
// and the flag package's diagnostics to stderr, and returns failures.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("facility", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cluster cli.ClusterFlags
	cluster.Register(fs)
	jobs := fs.Int("jobs", 16, "jobs submitted")
	nodes := fs.Int("nodes", 16, "compute node pool")
	emerging := fs.Float64("emerging", 0.5, "fraction of emerging (DL/analytics) jobs [0,1]")
	scale := fs.Int64("scale", 1, "per-job I/O volume multiplier")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if err := cli.MaxArgs(fs, 0); err != nil {
		return err
	}

	cfg, err := cluster.Config()
	if err != nil {
		return err
	}
	trad := 1 - *emerging
	res, err := facility.Run(facility.Config{
		Seed: cluster.Seed, Cluster: cfg, Jobs: *jobs, Nodes: *nodes,
		JobScale: *scale,
		Mix: map[facility.JobKind]float64{
			facility.Checkpoint: trad,
			facility.DLTraining: *emerging * 0.5,
			facility.Analytics:  *emerging * 0.3,
			facility.MetaHeavy:  *emerging * 0.2,
		},
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "facility run: %d jobs on %d nodes, %.0f%% emerging workloads\n",
		*jobs, *nodes, *emerging*100)
	fmt.Fprintf(stdout, "  makespan %v, scheduler utilization %.1f%%\n", res.Makespan, res.Utilization*100)
	fmt.Fprintf(stdout, "  storage mix: %.1f%% of bytes were reads (write-dominated: %v)\n",
		res.ReadFraction*100, res.ReadFraction < 0.5)
	fmt.Fprintf(stdout, "  MDS operations: %d\n", res.MDSOps)
	fmt.Fprintln(stdout, "\nper-kind read fractions:")
	fracs := facility.KindReadFractions(res.Jobs)
	for kind := facility.Checkpoint; kind <= facility.MetaHeavy; kind++ {
		if frac, ok := fracs[kind]; ok {
			fmt.Fprintf(stdout, "  %-12s %.2f\n", kind, frac)
		}
	}
	fmt.Fprintln(stdout, "\njob log:")
	for _, j := range res.Jobs {
		fmt.Fprintf(stdout, "  %-8s %-11s start %-12v end %-12v r %s w %s\n",
			j.ID, j.Kind, j.Start, j.End,
			cli.FormatSize(j.BytesRead), cli.FormatSize(j.BytesWritten))
	}
	if len(res.Interferences) > 0 {
		fmt.Fprintln(stdout, "\ninterfering job pairs (overlap under high OST load):")
		for _, in := range res.Interferences {
			fmt.Fprintf(stdout, "  %s <-> %s (overlap %v, peak util %.2f)\n", in.A, in.B, in.Overlap, in.PeakUtil)
		}
	}
	return nil
}
