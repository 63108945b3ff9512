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
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"runtime"
	"sort"
	"time"

	"pioeval/internal/cli"
	"pioeval/internal/des"
	"pioeval/internal/faults"
	"pioeval/internal/iolang"
	"pioeval/internal/monitor"
	"pioeval/internal/pfs"
	"pioeval/internal/reduce"
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

// prof is the command's -cpuprofile/-memprofile state. Once profiling
// has started, the command ends through exit or fatal, never os.Exit or
// log.Fatal, so every exit path completes both profiles.
var prof cli.Profiles

// exit completes the profiles and ends the process with code.
func exit(code int) {
	if err := prof.Stop(); err != nil {
		log.Print(err)
		code = 1
	}
	os.Exit(code)
}

// fatal logs v, completes the profiles and exits with status 1.
func fatal(v ...any) {
	log.Print(v...)
	exit(1)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("simfs: ")
	fs := flag.NewFlagSet("simfs", flag.ExitOnError)
	var cluster cli.ClusterFlags
	cluster.Register(fs)
	sample := fs.Bool("sample", false, "print sampled bandwidth series")
	faultSpec := fs.String("faults", "", "fault campaign, e.g. 'ostcrash:1@100ms; ostrecover:1@700ms; mdsdown@1s; mdsup@1.5s'")
	resilient := fs.Bool("resilient", false, "enable the default client resilience policy (timeouts, retries, degraded reads)")
	doValidate := fs.Bool("validate", false, "arm runtime invariant checkers and exit non-zero on any violation (runs a built-in scenario when no script is given)")
	doOracles := fs.Bool("oracles", false, "run the analytic oracle suite instead of a workload; exit non-zero on failure")
	tier := fs.String("tier", "direct", "storage tier for workload ranks: direct, bb (burst-buffer write-back), or nodelocal (per-node scratch)")
	compress := fs.String("compress", "none", "data-reduction stage over the tier: none, lz, deflate, zfp, or sz")
	scaleRanks := fs.Int("ranks", 0, "run the built-in scale checkpoint with this many continuation-form ranks instead of a workload script")
	shards := fs.Int("shards", 1, "partition the scale run into this many engines coupled by a ParallelGroup")
	shardWorkers := fs.Int("shard-workers", 0, "persistent shard workers (0 = all host cores via runtime.NumCPU, 1 = sequential); never affects results")
	workersSweep := fs.Int("workers-sweep", 0, "run the sharded scale config at worker counts 1..N (powers of two), print a speedup/efficiency table, and verify the output is byte-identical across the sweep (0 = off)")
	steps := fs.Int("steps", 1, "checkpoint steps for the scale run")
	bytesPerRank := fs.Int64("bytes-per-rank", 1<<20, "checkpoint bytes per rank per step for the scale run")
	xfer := fs.Int64("xfer", 1<<20, "write chunk size for the scale run")
	ranksPerNode := fs.Int("ranks-per-node", 64, "ranks sharing one compute node (and its NIC) in the scale run")
	prof.Register(fs)
	_ = fs.Parse(os.Args[1:])

	if *doOracles {
		failed := false
		for _, r := range validate.RunOracles(cluster.Seed) {
			fmt.Println(r)
			if !r.Pass() {
				failed = true
				fmt.Printf("     %s\n", r.Detail)
			}
		}
		if failed {
			os.Exit(1)
		}
		return
	}
	if *scaleRanks == 0 && fs.NArg() != 1 && !(*doValidate && fs.NArg() == 0) {
		log.Fatal("usage: simfs [flags] <workload.iol> (the script may be omitted with -validate or -ranks)")
	}
	if err := prof.Start(); err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			log.Fatal(err)
		}
	}()
	if *scaleRanks > 0 {
		sc := scaleOpts{
			ranks: *scaleRanks, shards: *shards, workers: *shardWorkers,
			steps: *steps, bytesPerRank: *bytesPerRank, xfer: *xfer,
			ranksPerNode: *ranksPerNode, validate: *doValidate,
			workersSweep: *workersSweep,
		}
		if sc.workersSweep > 0 {
			if !runWorkersSweep(cluster, sc) {
				exit(1)
			}
			return
		}
		if !runScale(cluster, sc) {
			exit(1)
		}
		return
	}
	src := []byte(defaultScenario)
	if fs.NArg() == 1 {
		var err error
		src, err = os.ReadFile(fs.Arg(0))
		if err != nil {
			fatal(err)
		}
	}
	wl, err := iolang.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	cfg, err := cluster.Config()
	if err != nil {
		fatal(err)
	}
	if *resilient || *faultSpec != "" {
		cfg.Resilience = pfs.DefaultResilience()
	}

	e := des.NewEngine(cluster.Seed)
	sim := pfs.New(e, cfg)
	var inv *validate.Invariants
	var col *trace.Collector
	if *doValidate {
		col = trace.NewCollector()
		col.SetLimit(1) // records flow through the invariant hook; retention is not needed
		inv = validate.Attach(e, sim, col)
	}
	var sampler *monitor.Sampler
	if *sample {
		sampler = monitor.NewSampler(e, sim, 10*des.Millisecond, des.Hour)
	}
	var campaign *faults.Scheduler
	if *faultSpec != "" {
		c, err := faults.ParseCampaign(*faultSpec)
		if err != nil {
			fatal(err)
		}
		if campaign, err = faults.Run(e, sim, c); err != nil {
			fatal(err)
		}
	}
	var prov *storage.Provider
	var comp *reduce.Stage
	wantCompress := *compress != "none" && *compress != ""
	if *tier != "direct" && *tier != "" || wantCompress {
		prov, err = storage.NewProvider(e, sim, *tier, storage.ProviderConfig{})
		if err != nil {
			fatal(err)
		}
		if wantCompress {
			comp, err = reduce.New(*compress)
			if err != nil {
				fatal(err)
			}
			prov.Push(comp)
		}
		if inv != nil {
			inv.ObserveTier(prov)
		}
	}
	rep, err := iolang.RunOn(e, sim, wl, col, prov)
	if err != nil {
		fatal(err)
	}
	if sampler != nil {
		sampler.Stop()
	}

	fmt.Printf("workload %q: %d ranks, makespan %v, read %s, wrote %s\n",
		rep.Name, rep.Ranks, rep.Makespan,
		cli.FormatSize(rep.BytesRead), cli.FormatSize(rep.BytesWritten))

	fmt.Println("\nOST counters:")
	fmt.Printf("  %-6s %-8s %12s %12s %8s\n", "ost", "oss", "read", "written", "util")
	for _, st := range sim.OSTStats() {
		fmt.Printf("  ost%-3d %-8s %12s %12s %7.1f%%\n",
			st.ID, st.OSSNode, cli.FormatSize(st.BytesRead), cli.FormatSize(st.BytesWritten), st.Utilization*100)
	}

	md := sim.MDSStats()
	fmt.Printf("\nMDS: %d ops total\n", md.TotalOps)
	ops := make([]string, 0, len(md.Ops))
	for op := range md.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Printf("  %-10s %8d\n", op, md.Ops[op])
	}

	if prov != nil {
		switch prov.Tier() {
		case storage.TierBB:
			fmt.Println("\nburst buffers:")
			for _, bb := range prov.Buffers() {
				st := bb.Stats()
				fmt.Printf("  %-8s absorbed %s, drained %s, peak %s, %d stalls, reads %s staged / %s through\n",
					bb.Node(), cli.FormatSize(st.Absorbed), cli.FormatSize(st.Drained),
					cli.FormatSize(st.PeakUsed), st.Stalls,
					cli.FormatSize(st.BufReads), cli.FormatSize(st.MissReads))
				if st.DrainErrors > 0 {
					fmt.Printf("  %-8s DRAIN ERRORS: %d segments (%s) lost; last: %v\n",
						bb.Node(), st.DrainErrors, cli.FormatSize(st.LostBytes), st.LastDrainError)
				}
				if st.ReadErrors > 0 {
					fmt.Printf("  %-8s READ ERRORS: %d read-through failures; last: %v\n",
						bb.Node(), st.ReadErrors, st.LastReadError)
				}
			}
		case storage.TierNodeLocal:
			fmt.Println("\nnode-local scratch:")
			for _, nl := range prov.Locals() {
				st := nl.Stats()
				fmt.Printf("  %-10s read %s, wrote %s, %d files\n",
					st.Name, cli.FormatSize(st.BytesRead), cli.FormatSize(st.BytesWritten), st.Files)
			}
		}
	}

	if comp != nil {
		st := comp.StageStats()
		fmt.Printf("\ncompression (%s):\n", comp.Name())
		fmt.Printf("  wrote logical %s -> physical %s (ratio %.2f), cpu %.4fs\n",
			cli.FormatSize(st.LogicalWritten), cli.FormatSize(st.PhysicalWritten), st.Ratio(), st.CompressSeconds)
		fmt.Printf("  read  logical %s <- physical %s, cpu %.4fs\n",
			cli.FormatSize(st.LogicalRead), cli.FormatSize(st.PhysicalRead), st.DecompressSeconds)
	}

	if campaign != nil {
		fmt.Println("\nfault campaign:")
		for _, a := range campaign.Log() {
			if a.Err != nil {
				fmt.Printf("  %v (inject error: %v)\n", a.Event, a.Err)
			} else {
				fmt.Printf("  %v\n", a.Event)
			}
		}
		cs := sim.ClientStatsTotal()
		fmt.Printf("resilience: %d retries, %d timed-out RPCs, %d failed RPCs, %d degraded reads (%s missing)\n",
			cs.Retries, cs.TimedOutRPCs, cs.FailedRPCs, cs.DegradedReads, cli.FormatSize(cs.BytesMissing))
	}

	if sampler != nil {
		fmt.Println("\nsampled aggregate bandwidth (MB/s):")
		for _, r := range sampler.DeriveRates() {
			if r.ReadBps == 0 && r.WriteBps == 0 {
				continue
			}
			fmt.Printf("  t=%-12v read %10.1f  write %10.1f  imbalance %.2f\n",
				r.At, r.ReadBps/1e6, r.WriteBps/1e6, r.LoadImbalance)
		}
	}

	if inv != nil {
		vios := inv.Finish()
		st := inv.Stats()
		fmt.Printf("\nvalidation: %d dispatches, %d trace records, %d client ops, %d OST events checked\n",
			st.Dispatches, st.TraceRecords, st.ClientOps, st.OSTEvents)
		if len(vios) == 0 {
			fmt.Println("validation: all invariants held")
		} else {
			for _, v := range vios {
				fmt.Printf("validation: VIOLATION %s\n", v)
			}
			exit(1)
		}
	}
}

// scaleOpts bundles the -ranks scale-mode knobs.
type scaleOpts struct {
	ranks, shards, workers, steps int
	bytesPerRank, xfer            int64
	ranksPerNode                  int
	validate                      bool
	workersSweep                  int
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

// reportHash is a stable digest of every simulated quantity in a sharded
// report — everything except the host-side Workers knob — used to assert
// byte-identical output across a worker sweep.
func reportHash(rep workload.ShardedReport) uint64 {
	rep.Workers = 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", rep)
	return h.Sum64()
}

// runWorkersSweep runs the identical sharded scale config at worker counts
// 1, 2, 4, ... up to o.workersSweep (always including the max), printing a
// wall-clock speedup/parallel-efficiency table and verifying that every
// worker count produces the same simulated output. Returns false when the
// outputs diverge (a determinism bug) or an armed invariant fired.
func runWorkersSweep(cluster cli.ClusterFlags, o scaleOpts) bool {
	if o.shards <= 1 {
		fatal("-workers-sweep needs -shards > 1")
	}
	var counts []int
	for w := 1; w < o.workersSweep; w *= 2 {
		counts = append(counts, w)
	}
	counts = append(counts, o.workersSweep)

	fmt.Printf("workers sweep: %d ranks x %d shards, %d step(s), %s/rank, %d host cores\n",
		o.ranks, o.shards, o.steps, cli.FormatSize(o.bytesPerRank), runtime.NumCPU())
	fmt.Printf("  %-8s %-12s %-9s %-11s %-8s %s\n",
		"workers", "wall", "speedup", "efficiency", "windows", "output-hash")

	ok := true
	var baseWall time.Duration
	var baseHash uint64
	for i, w := range counts {
		oo := o
		oo.workers = w
		rep, invs, _, wall := runShardedOnce(cluster, oo)
		hash := reportHash(rep)
		if !invariantsHeld(invs) {
			ok = false
		}
		if i == 0 {
			baseWall, baseHash = wall, hash
		}
		speedup := float64(baseWall) / float64(wall)
		fmt.Printf("  %-8d %-12v %-9s %-11s %-8d %016x\n",
			w, wall.Round(time.Millisecond),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.1f%%", 100*speedup/float64(w)),
			rep.Windows, hash)
		if hash != baseHash {
			fmt.Printf("sweep: OUTPUT MISMATCH at workers=%d (hash %016x, want %016x)\n", w, hash, baseHash)
			ok = false
		}
	}
	if ok {
		fmt.Printf("sweep: output byte-identical across workers %v\n", counts)
	}
	return ok
}

// runShardedOnce executes one scale run — sharded across engines when
// o.shards > 1 — with invariant checkers armed on every shard when
// o.validate. It returns the workload result, the armed checkers, every
// shard's file system (so callers can pin simulator state), and the host
// wall-clock time.
func runShardedOnce(cluster cli.ClusterFlags, o scaleOpts) (workload.ShardedReport, []*validate.Invariants, []*pfs.FS, time.Duration) {
	cfg, err := cluster.Config()
	if err != nil {
		fatal(err)
	}
	var invs []*validate.Invariants
	var shardFS []*pfs.FS
	shcfg := workload.ShardedConfig{
		Scale: o.scaleConfig(), Shards: o.shards, Workers: o.workers,
		FS: cfg, Seed: cluster.Seed,
		AttachShard: func(shard int, e *des.Engine, sim *pfs.FS) {
			shardFS = append(shardFS, sim)
			if o.validate {
				col := trace.NewCollector()
				col.SetLimit(1) // records flow through the invariant hook; retention is not needed
				invs = append(invs, validate.Attach(e, sim, col))
			}
		},
	}
	wall0 := time.Now()
	rep := workload.RunShardedCheckpoint(shcfg)
	return rep, invs, shardFS, time.Since(wall0)
}

// invariantsHeld prints every violation the armed checkers recorded and
// reports whether there were none.
func invariantsHeld(invs []*validate.Invariants) bool {
	ok := true
	for _, inv := range invs {
		for _, v := range inv.Finish() {
			fmt.Printf("validation: VIOLATION %s\n", v)
			ok = false
		}
	}
	return ok
}

// runScale executes the built-in scale checkpoint: a file-per-process
// HACC-IO-like dump where every rank is a continuation-form event process
// (no goroutine per rank), optionally sharded across engines under a
// ParallelGroup. It reports simulated results plus host-side cost — wall
// time, event throughput, heap bytes per rank, and allocations per rank
// (every heap allocation the run made, including set-up). Returns false
// when an armed invariant was violated.
func runScale(cluster cli.ClusterFlags, o scaleOpts) bool {
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	// keepFS pins the simulation state through the post-run heap
	// measurement, so "heap B/rank" reports retained simulator footprint
	// (engine pool, clients, namespace) instead of zero after collection.
	rep, invs, keepFS, wall := runShardedOnce(cluster, o)
	if rep.Shards > 1 {
		fmt.Printf("sharded: %d shards (workers %d), ranks/shard %v, lookahead %v, %d windows\n",
			rep.Shards, rep.Workers, rep.RanksPerShard, rep.Lookahead, rep.Windows)
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
	fmt.Printf("scale checkpoint: %d ranks (%d nodes x %d), %d step(s), %s/rank\n",
		o.ranks, nodes, o.ranksPerNode, o.steps, cli.FormatSize(o.bytesPerRank))
	fmt.Printf("  simulated: makespan %v, %s checkpointed, effective %.1f MB/s, %d I/O errors\n",
		rep.Makespan, cli.FormatSize(rep.TotalBytes), rep.EffectiveMBps, rep.IOErrors)
	evRate := float64(rep.Events) / wall.Seconds()
	fmt.Printf("  host: %d events in %v (%.2fM events/s), heap %d B/rank, %.1f allocs/rank\n",
		rep.Events, wall.Round(time.Millisecond), evRate/1e6, heapPerRank, allocsPerRank)

	ok := invariantsHeld(invs)
	if o.validate {
		var disp, recs, clops, ostev uint64
		for _, inv := range invs {
			st := inv.Stats()
			disp += st.Dispatches
			recs += st.TraceRecords
			clops += st.ClientOps
			ostev += st.OSTEvents
		}
		fmt.Printf("validation: %d dispatches, %d trace records, %d client ops, %d OST events checked\n",
			disp, recs, clops, ostev)
		if ok {
			fmt.Println("validation: all invariants held")
		}
	}
	return ok
}
