// Command tracer interprets an iolang workload script against a simulated
// cluster with multi-level tracing enabled and writes the trace to a file
// (binary by default, JSON with -json). It is the record half of the
// record-and-replay workflow; feed the output to replayer or skelgen.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"pioeval/internal/cli"
	"pioeval/internal/des"
	"pioeval/internal/iolang"
	"pioeval/internal/pfs"
	"pioeval/internal/profile"
	"pioeval/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracer: ")
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		log.Print(err)
	}
	os.Exit(cli.ExitCode(err))
}

// run is the whole command behind a testable seam: flags come from args,
// all output goes to the supplied writers, and failures return as errors
// instead of exiting. The round-trip golden test drives it.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cluster cli.ClusterFlags
	cluster.Register(fs)
	out := fs.String("o", "trace.piot", "output trace file")
	asJSON := fs.Bool("json", false, "write JSON instead of binary")
	report := fs.Bool("report", false, "also print a Darshan-like characterization report")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if fs.NArg() != 1 {
		return errors.New("usage: tracer [flags] <workload.iol>")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	wl, err := iolang.Parse(string(src))
	if err != nil {
		return err
	}
	cfg, err := cluster.Config()
	if err != nil {
		return err
	}

	e := des.NewEngine(cluster.Seed)
	sim := pfs.New(e, cfg)
	col := trace.NewCollector()
	prof := profile.New()
	prof.Attach(col)
	rep, err := iolang.Run(e, sim, wl, col)
	if err != nil {
		return err
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if *asJSON {
		err = trace.WriteJSON(f, col.Records())
	} else {
		err = trace.WriteBinary(f, col.Records())
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "workload %q: %d ranks, %d ops, read %s, wrote %s, makespan %v\n",
		rep.Name, rep.Ranks, rep.Ops,
		cli.FormatSize(rep.BytesRead), cli.FormatSize(rep.BytesWritten), rep.Makespan)
	fmt.Fprintf(stdout, "trace: %d records -> %s\n", col.Len(), *out)
	if *report {
		return prof.WriteReport(stdout)
	}
	return nil
}
