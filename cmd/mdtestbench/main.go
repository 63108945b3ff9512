// Command mdtestbench runs the mdtest-like metadata benchmark against a
// simulated parallel file system and prints per-phase operation rates.
//
// Example:
//
//	mdtestbench -ranks 8 -files 512 -write 3901B -phases create,stat,read,delete
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

func main() { cli.Main("mdtestbench", run) }

// run is the whole command behind a testable seam: flags come from args,
// all output goes to the supplied writers, and failures return as errors
// instead of exiting. The golden test drives it with a bytes.Buffer.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mdtestbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cluster cli.ClusterFlags
	cluster.Register(fs)
	ranks := fs.Int("ranks", 4, "client ranks")
	files := fs.Int("files", 256, "files per rank")
	writeStr := fs.String("write", "0B", "bytes written into each file (mdtest -w); the read phase reads them back")
	phasesStr := fs.String("phases", "create,stat,delete", "comma-separated timed phases: create,stat,read,delete (create is mandatory)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if err := cli.RequirePositive(fs, "ranks", "files"); err != nil {
		return err
	}

	cfg, err := cluster.Config()
	if err != nil {
		return err
	}
	writeBytes, err := cli.SizeAtLeast("write", *writeStr, 0)
	if err != nil {
		return err
	}
	phases, err := workload.ParseMDPhases(*phasesStr)
	if err != nil {
		return err
	}

	e := des.NewEngine(cluster.Seed)
	sim := pfs.New(e, cfg)
	h := workload.NewHarness(e, sim, *ranks, "cn", nil)
	rep := workload.RunMDTest(h, workload.MDTestConfig{
		Ranks: *ranks, FilesPerRank: *files, WriteBytes: writeBytes,
		Phases: phases,
	})

	fmt.Fprintf(stdout, "mdtest-like benchmark: %d ranks x %d files (MDS threads: %d)\n",
		*ranks, *files, cfg.MDSThreads)
	fmt.Fprintf(stdout, "  %-10s %12s %14s\n", "phase", "time", "ops/sec")
	for _, p := range phases {
		fmt.Fprintf(stdout, "  %-10s %12v %14.0f\n", p, rep.PhaseTime(p), rep.PhaseRate(p))
	}
	st := sim.MDSStats()
	fmt.Fprintf(stdout, "  MDS total ops: %d\n", st.TotalOps)
	return nil
}
