// Command simfs runs an iolang workload script against a configurable
// simulated cluster and prints the server-side view: OST utilization and
// byte counters, MDS operation mix, and optional sampled bandwidth series
// — the storage-system-level monitoring perspective.
//
// With -validate the run self-checks: the full invariant suite from
// internal/validate (time monotonicity, per-rank causality, byte
// conservation across layer boundaries, clean shutdown balance) is armed,
// violations are reported, and the exit status is non-zero on any
// violation. With -oracles the analytic oracle suite runs instead of a
// workload and the exit status reflects the verdict.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"pioeval/internal/cli"
	"pioeval/internal/des"
	"pioeval/internal/iolang"
	"pioeval/internal/monitor"
	"pioeval/internal/pfs"
	"pioeval/internal/stack"
	"pioeval/internal/storage"
	"pioeval/internal/trace"
	"pioeval/internal/validate"
	"pioeval/internal/workload"
)

// defaultScenario is the workload -validate runs when no script is given:
// a mixed checkpoint/log pattern touching every layer the checkers watch.
const defaultScenario = `workload "validate-default" {
	ranks 4
	stripe count=4 size=1048576
	write "/ckpt" offset=rank*4194304 size=4194304 chunk=1048576
	barrier
	read "/ckpt" offset=rank*4194304 size=2097152
	fsync "/ckpt"
	loop 2 {
		write "/log" offset=rank*1048576+iter*4194304 size=1048576
	}
	close "/ckpt"
}
`

func main() { cli.Main("simfs", run) }

// errViolated ends a run whose armed invariant checkers reported
// violations; they have been printed, so Main adds no message of its own.
var errViolated = cli.Reported(errors.New("invariant violated"))

// run is the whole command: it parses args, writes the report to stdout
// and the flag package's diagnostics to stderr, and returns failures.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simfs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cluster cli.ClusterFlags
	cluster.Register(fs)
	var o runOpts
	fs.BoolVar(&o.sample, "sample", false, "print sampled bandwidth series")
	fs.StringVar(&o.stack.Faults, "faults", "", "fault campaign, e.g. 'ostcrash:1@100ms; ostrecover:1@700ms; mdsdown@1s; mdsup@1.5s'")
	fs.BoolVar(&o.resilient, "resilient", false, "enable the default client resilience policy (timeouts, retries, degraded reads)")
	doValidate := fs.Bool("validate", false, "arm runtime invariant checkers and exit non-zero on any violation (runs a built-in scenario when no script is given)")
	doOracles := fs.Bool("oracles", false, "run the analytic oracle suite instead of a workload; exit non-zero on failure")
	fs.StringVar(&o.stack.Tier, "tier", "direct", "storage tier for workload ranks: direct, bb (burst-buffer write-back), or nodelocal (per-node scratch)")
	fs.StringVar(&o.stack.Compress, "compress", "none", "data-reduction stage over the tier: none, lz, deflate, zfp, or sz")
	scaleRanks := fs.Int("ranks", 0, "run the built-in scale checkpoint with this many continuation-form ranks instead of a workload script")
	shards := fs.Int("shards", 1, "partition the scale run into this many engines coupled by a ParallelGroup (capped at -oss and -ranks)")
	steps := fs.Int("steps", 1, "checkpoint steps for the scale run")
	bytesPerRank := fs.Int64("bytes-per-rank", 1<<20, "checkpoint bytes per rank per step for the scale run")
	xfer := fs.Int64("xfer", 1<<20, "write chunk size for the scale run")
	ranksPerNode := fs.Int("ranks-per-node", 64, "ranks sharing one compute node (and its NIC) in the scale run")
	var prof cli.Profiles
	prof.Register(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *scaleRanks != 0 {
		if err := cli.RequirePositive(fs, "ranks", "shards", "steps", "bytes-per-rank", "xfer", "ranks-per-node"); err != nil {
			return err
		}
	}

	if *doOracles {
		failed := false
		for _, r := range validate.RunOracles(cluster.Seed) {
			fmt.Fprintln(stdout, r)
			if !r.Pass() {
				failed = true
				fmt.Fprintf(stdout, "     %s\n", r.Detail)
			}
		}
		if failed {
			return cli.Reported(errors.New("analytic oracle failed"))
		}
		return nil
	}
	if *scaleRanks == 0 && fs.NArg() != 1 && !(*doValidate && fs.NArg() == 0) {
		return fmt.Errorf("%w: simfs [flags] <workload.iol> (the script may be omitted with -validate or -ranks)", cli.ErrUsage)
	}
	if *scaleRanks > 0 && (o.stack.Faults != "" || o.resilient) {
		// The scale checkpoint builds its file systems without a fault
		// campaign or a resilience policy; say so rather than run it
		// fault-free.
		return fmt.Errorf("%w: -faults and -resilient apply to workload scripts, not to the -ranks scale checkpoint", cli.ErrUsage)
	}
	return prof.Run(func() error {
		if *scaleRanks > 0 {
			return runScale(stdout, cluster, scaleOpts{
				ranks: *scaleRanks, shards: *shards,
				steps: *steps, bytesPerRank: *bytesPerRank, xfer: *xfer,
				ranksPerNode: *ranksPerNode, validate: *doValidate,
			})
		}
		src := []byte(defaultScenario)
		if fs.NArg() == 1 {
			var err error
			if src, err = os.ReadFile(fs.Arg(0)); err != nil {
				return err
			}
		}
		o.validate = *doValidate
		return runScript(stdout, cluster, string(src), o)
	})
}

// runOpts bundles the knobs of a workload-script run: the stack's tier,
// compressor and fault campaign, and what to arm and print.
type runOpts struct {
	stack                       stack.Config
	sample, resilient, validate bool
}

// runScript runs the iolang workload src on the configured cluster and
// prints the server-side report. It returns errViolated when an armed
// invariant was violated.
func runScript(stdout io.Writer, cluster cli.ClusterFlags, src string, o runOpts) error {
	wl, err := iolang.Parse(src)
	if err != nil {
		return err
	}
	sc := o.stack
	if sc.Cluster, err = cluster.Config(); err != nil {
		return err
	}
	if o.resilient || sc.Faults != "" {
		sc.Cluster.Resilience = pfs.DefaultResilience()
	}
	sc.Seed = cluster.Seed
	stk, err := stack.New(sc)
	if err != nil {
		return err
	}
	sim := stk.FS
	var inv *validate.Invariants
	var col *trace.Collector
	if o.validate {
		inv, col = validate.Arm(stk.E, sim, stk.Provider)
	}
	var sampler *monitor.Sampler
	if o.sample {
		sampler = monitor.NewSampler(stk.E, sim, 10*des.Millisecond, des.Hour)
	}
	rep, err := iolang.RunOn(stk.E, sim, wl, col, stk.Provider)
	if err != nil {
		return err
	}
	if sampler != nil {
		sampler.Stop()
	}
	fmt.Fprintf(stdout, "workload %q: %d ranks, makespan %v, read %s, wrote %s\n",
		rep.Name, rep.Ranks, rep.Makespan,
		cli.FormatSize(rep.BytesRead), cli.FormatSize(rep.BytesWritten))

	fmt.Fprintln(stdout, "\nOST counters:")
	fmt.Fprintf(stdout, "  %-6s %-8s %12s %12s %8s\n", "ost", "oss", "read", "written", "util")
	for _, st := range sim.OSTStats() {
		fmt.Fprintf(stdout, "  ost%-3d %-8s %12s %12s %7.1f%%\n",
			st.ID, st.OSSNode, cli.FormatSize(st.BytesRead), cli.FormatSize(st.BytesWritten), st.Utilization*100)
	}

	md := sim.MDSStats()
	fmt.Fprintf(stdout, "\nMDS: %d ops total\n", md.TotalOps)
	ops := make([]string, 0, len(md.Ops))
	for op := range md.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Fprintf(stdout, "  %-10s %8d\n", op, md.Ops[op])
	}

	switch stk.Provider.Tier() {
	case storage.TierBB:
		fmt.Fprintln(stdout, "\nburst buffers:")
		for _, bb := range stk.Provider.Buffers() {
			st := bb.Stats()
			fmt.Fprintf(stdout, "  %-8s absorbed %s, drained %s, peak %s, %d stalls, reads %s staged / %s through\n",
				bb.Node(), cli.FormatSize(st.Absorbed), cli.FormatSize(st.Drained),
				cli.FormatSize(st.PeakUsed), st.Stalls,
				cli.FormatSize(st.BufReads), cli.FormatSize(st.MissReads))
			if st.DrainErrors > 0 {
				fmt.Fprintf(stdout, "  %-8s DRAIN ERRORS: %d segments (%s) lost; last: %v\n",
					bb.Node(), st.DrainErrors, cli.FormatSize(st.LostBytes), st.LastDrainError)
			}
			if st.ReadErrors > 0 {
				fmt.Fprintf(stdout, "  %-8s READ ERRORS: %d read-through failures; last: %v\n",
					bb.Node(), st.ReadErrors, st.LastReadError)
			}
		}
	case storage.TierNodeLocal:
		fmt.Fprintln(stdout, "\nnode-local scratch:")
		for _, nl := range stk.Provider.Locals() {
			st := nl.Stats()
			fmt.Fprintf(stdout, "  %-10s read %s, wrote %s, %d files\n",
				st.Name, cli.FormatSize(st.BytesRead), cli.FormatSize(st.BytesWritten), st.Files)
		}
	}

	if comp := stk.Stage; comp != nil {
		st := comp.StageStats()
		fmt.Fprintf(stdout, "\ncompression (%s):\n", comp.Name())
		fmt.Fprintf(stdout, "  wrote logical %s -> physical %s (ratio %.2f), cpu %.4fs\n",
			cli.FormatSize(st.LogicalWritten), cli.FormatSize(st.PhysicalWritten), st.Ratio(), st.CompressSeconds)
		fmt.Fprintf(stdout, "  read  logical %s <- physical %s, cpu %.4fs\n",
			cli.FormatSize(st.LogicalRead), cli.FormatSize(st.PhysicalRead), st.DecompressSeconds)
	}

	if stk.Faults != nil {
		fmt.Fprintln(stdout, "\nfault campaign:")
		for _, a := range stk.Faults.Log() {
			if a.Err != nil {
				fmt.Fprintf(stdout, "  %v (inject error: %v)\n", a.Event, a.Err)
			} else {
				fmt.Fprintf(stdout, "  %v\n", a.Event)
			}
		}
		cs := sim.ClientStatsTotal()
		fmt.Fprintf(stdout, "resilience: %d retries, %d timed-out RPCs, %d failed RPCs, %d degraded reads (%s missing)\n",
			cs.Retries, cs.TimedOutRPCs, cs.FailedRPCs, cs.DegradedReads, cli.FormatSize(cs.BytesMissing))
	}

	if sampler != nil {
		fmt.Fprintln(stdout, "\nsampled aggregate bandwidth (MB/s):")
		for _, r := range sampler.DeriveRates() {
			if r.ReadBps == 0 && r.WriteBps == 0 {
				continue
			}
			fmt.Fprintf(stdout, "  t=%-12v read %10.1f  write %10.1f  imbalance %.2f\n",
				r.At, r.ReadBps/1e6, r.WriteBps/1e6, r.LoadImbalance)
		}
	}

	if inv != nil {
		vios := inv.Finish()
		st := inv.Stats()
		fmt.Fprintf(stdout, "\nvalidation: %d dispatches, %d trace records, %d client ops, %d OST events checked\n",
			st.Dispatches, st.TraceRecords, st.ClientOps, st.OSTEvents)
		if len(vios) == 0 {
			fmt.Fprintln(stdout, "validation: all invariants held")
		} else {
			for _, v := range vios {
				fmt.Fprintf(stdout, "validation: VIOLATION %s\n", v)
			}
			return errViolated
		}
	}
	return nil
}

// scaleOpts bundles the -ranks scale-mode knobs.
type scaleOpts struct {
	ranks, shards, steps int
	bytesPerRank, xfer   int64
	ranksPerNode         int
	validate             bool
}

// scaleConfig translates the CLI knobs into the workload config.
func (o scaleOpts) scaleConfig() workload.ScaleConfig {
	return workload.ScaleConfig{
		Ranks:        o.ranks,
		BytesPerRank: o.bytesPerRank,
		Steps:        o.steps,
		TransferSize: o.xfer,
		RanksPerNode: o.ranksPerNode,
		// A million per-process files striped wide is not how FPP
		// checkpoints behave: one stripe per file.
		StripeCount: 1,
	}
}

// runScale executes the built-in scale checkpoint: a file-per-process
// HACC-IO-like dump where every rank is a continuation-form event process
// (no goroutine per rank), optionally sharded across engines under a
// ParallelGroup. It reports simulated results plus host-side cost — wall
// time, event throughput, heap bytes per rank, and allocations per rank
// (every heap allocation the run made, including set-up). It returns
// errViolated when an armed invariant was violated.
func runScale(stdout io.Writer, cluster cli.ClusterFlags, o scaleOpts) error {
	cfg, err := cluster.Config()
	if err != nil {
		return err
	}
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	// keepFS pins the simulation state through the post-run heap
	// measurement, so "heap B/rank" reports retained simulator footprint
	// (engine pool, clients, namespace) instead of zero after collection.
	var invs []*validate.Invariants
	var keepFS []*pfs.FS
	shcfg := workload.ShardedConfig{
		Scale: o.scaleConfig(), Shards: o.shards, FS: cfg, Seed: cluster.Seed,
		AttachShard: func(shard int, e *des.Engine, sim *pfs.FS) {
			keepFS = append(keepFS, sim)
			if o.validate {
				inv, _ := validate.Arm(e, sim, nil)
				invs = append(invs, inv)
			}
		},
	}
	wall0 := time.Now()
	rep := workload.RunShardedCheckpoint(shcfg)
	wall := time.Since(wall0)
	if rep.Shards > 1 {
		fmt.Fprintf(stdout, "sharded: %d shards, ranks/shard %v, lookahead %v, %d windows\n",
			rep.Shards, rep.RanksPerShard, rep.Lookahead, rep.Windows)
	}

	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	heapPerRank := int64(0)
	if m1.HeapAlloc > m0.HeapAlloc {
		heapPerRank = int64(m1.HeapAlloc-m0.HeapAlloc) / int64(o.ranks)
	}
	runtime.KeepAlive(keepFS)
	allocsPerRank := float64(m1.Mallocs-m0.Mallocs) / float64(o.ranks)

	nodes := (o.ranks + o.ranksPerNode - 1) / o.ranksPerNode
	fmt.Fprintf(stdout, "scale checkpoint: %d ranks (%d nodes x %d), %d step(s), %s/rank\n",
		o.ranks, nodes, o.ranksPerNode, o.steps, cli.FormatSize(o.bytesPerRank))
	fmt.Fprintf(stdout, "  simulated: makespan %v, %s checkpointed, effective %.1f MB/s, %d I/O errors\n",
		rep.Makespan, cli.FormatSize(rep.TotalBytes), rep.EffectiveMBps, rep.IOErrors)
	evRate := float64(rep.Events) / wall.Seconds()
	fmt.Fprintf(stdout, "  host: %d events in %v (%.2fM events/s), heap %d B/rank, %.1f allocs/rank\n",
		rep.Events, wall.Round(time.Millisecond), evRate/1e6, heapPerRank, allocsPerRank)

	ok := true
	for _, inv := range invs {
		for _, v := range inv.Finish() {
			fmt.Fprintf(stdout, "validation: VIOLATION %s\n", v)
			ok = false
		}
	}
	if o.validate {
		var disp, recs, clops, ostev uint64
		for _, inv := range invs {
			st := inv.Stats()
			disp += st.Dispatches
			recs += st.TraceRecords
			clops += st.ClientOps
			ostev += st.OSTEvents
		}
		fmt.Fprintf(stdout, "validation: %d dispatches, %d trace records, %d client ops, %d OST events checked\n",
			disp, recs, clops, ostev)
		if ok {
			fmt.Fprintln(stdout, "validation: all invariants held")
		}
	}
	if !ok {
		return errViolated
	}
	return nil
}
