package campaign

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/pfs"
	"pioeval/internal/stack"
	"pioeval/internal/workload"
)

// Progress reports pool advancement to an observer; Done counts completed
// runs out of Total, and ETA extrapolates the remaining wall-clock time
// from the observed completion rate.
type Progress struct {
	Done, Total int
	Elapsed     time.Duration
	ETA         time.Duration
}

// Options configures campaign execution. The zero value sizes the pool to
// GOMAXPROCS and reports no progress.
type Options struct {
	// Workers bounds simultaneous simulations; <= 0 selects GOMAXPROCS.
	Workers int
	// OnProgress, when non-nil, is invoked (serialized) after every
	// completed run. Progress observation is wall-clock dependent and must
	// therefore never feed into the Report.
	OnProgress func(Progress)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// PoolPanic records one pool index whose fn panicked. The pool recovers
// worker panics so a single poisoned item cannot take down the whole
// sweep — a prerequisite for long-running servers that feed untrusted
// specs through the pool.
type PoolPanic struct {
	Index int
	Value string
	Stack string
}

// PoolResult reports how a pool invocation ended: how many fn calls
// returned normally, which panicked (in index order), and whether the
// context was cancelled before every index ran.
type PoolResult struct {
	Completed int
	Panicked  []PoolPanic
	// Err is the context error when the pool stopped early, nil on a full
	// sweep. Indices neither completed nor panicked were never started.
	Err error
}

// Pool runs fn(i) for every i in [0, n) on a bounded worker pool. fn must
// write its result into caller-owned storage indexed by i; the pool
// imposes no ordering, so determinism comes from indexing, never from
// completion order. Pool is the generic substrate under Run and is
// exported for callers with non-grid sweeps (cmd/evalcycle's device-pair
// sweep uses it directly).
func Pool(n int, opt Options, fn func(i int)) PoolResult {
	return PoolContext(context.Background(), n, opt, fn)
}

// PoolContext is Pool with cancellation: when ctx is cancelled the pool
// stops handing out new indices, waits for in-flight fn calls to return,
// and reports the context error in the result. fn itself is not
// interrupted — cancellation granularity is one fn call.
func PoolContext(ctx context.Context, n int, opt Options, fn func(i int)) PoolResult {
	workers := opt.workers()
	if workers > n {
		workers = n
	}
	var res PoolResult
	if workers <= 1 {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				res.Err = err
				return res
			}
			res.record(safeCall(fn, i))
			notifyProgress(opt, i+1, n, start)
		}
		return res
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	start := time.Now()
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					continue // drain without running; the feeder is stopping
				}
				p := safeCall(fn, i)
				mu.Lock()
				res.record(p)
				done++
				notifyProgress(opt, done, n, start)
				mu.Unlock()
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		res.Err = err
	}
	// Workers record in completion order; panics must surface in a stable
	// order regardless of scheduling.
	sort.Slice(res.Panicked, func(a, b int) bool { return res.Panicked[a].Index < res.Panicked[b].Index })
	return res
}

// safeCall runs fn(i), converting a panic into a PoolPanic instead of
// unwinding the worker goroutine.
func safeCall(fn func(int), i int) (p *PoolPanic) {
	defer func() {
		if r := recover(); r != nil {
			p = &PoolPanic{Index: i, Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()
	fn(i)
	return nil
}

func (r *PoolResult) record(p *PoolPanic) {
	if p == nil {
		r.Completed++
	} else {
		r.Panicked = append(r.Panicked, *p)
	}
}

func notifyProgress(opt Options, done, total int, start time.Time) {
	if opt.OnProgress == nil {
		return
	}
	p := Progress{Done: done, Total: total, Elapsed: time.Since(start)}
	if done > 0 && done < total {
		p.ETA = time.Duration(float64(p.Elapsed) / float64(done) * float64(total-done))
	}
	opt.OnProgress(p)
}

// RunResult is one simulation's outcome. Metrics keys are stable
// per-workload names (write_MBps, makespan_ms, ...); encoding/json sorts
// map keys, so serialization is deterministic.
type RunResult struct {
	Point   int                `json:"point"`
	Rep     int                `json:"rep"`
	Seed    int64              `json:"seed"`
	Metrics map[string]float64 `json:"metrics"`
}

// Run expands spec, executes every (point, repetition) pair on the worker
// pool, and returns the aggregated report. The report is bit-identical
// for a given spec regardless of opt.Workers.
func Run(spec Spec, opt Options) (*Report, error) {
	return RunContext(context.Background(), spec, opt)
}

// simulateFn is the per-run simulation entry point; tests swap it to
// inject deterministic poison (panics, slow runs) without standing up a
// full cluster.
var simulateFn = simulate

// RunContext is Run with cancellation and per-run fault isolation. When
// ctx is cancelled mid-grid, the already-completed runs are aggregated
// into a partial Report with the Cancelled marker set and a nil error —
// never a panic or a hang. A run that panics (a poisoned grid point) is
// recovered and recorded as a typed JobError in the Report; the rest of
// the grid still runs. Cancellation granularity is one simulation run:
// an in-flight run finishes before its worker stops. The repetitions of
// a point share an engine and file system, reset between runs (see
// clusterCache), which changes no result.
func RunContext(ctx context.Context, spec Spec, opt Options) (*Report, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	points := spec.Expand()
	total := len(points) * spec.Reps
	runs := make([]RunResult, total)
	// Run headers (point, rep, seed) depend only on the spec; prefill them
	// so a partial report still lists every planned run deterministically,
	// with nil Metrics marking the ones that never executed.
	for i := range runs {
		runs[i] = RunResult{Point: points[i/spec.Reps].ID, Rep: i % spec.Reps, Seed: RunSeed(spec.Seed, i)}
	}
	clusters := &clusterCache{max: min(opt.workers(), total)}
	pr := PoolContext(ctx, total, opt, func(i int) {
		runs[i].Metrics = simulateFn(spec, points[i/spec.Reps], runs[i].Seed, clusters)
	})
	rep := aggregate(spec, points, runs)
	rep.Cancelled = pr.Err != nil
	for _, p := range pr.Panicked {
		rep.Errors = append(rep.Errors, JobError{
			Run:   p.Index,
			Point: points[p.Index/spec.Reps].ID,
			Rep:   p.Index % spec.Reps,
			Msg:   p.Value,
		})
	}
	return rep, nil
}

// ClusterConfig builds the PFS deployment for one grid point: the default
// Figure-1 cluster with a flat network, the point's device model and
// stripe geometry, and — whenever faults are injected — the default
// client resilience policy, so faulted runs measure degradation rather
// than immediate failure. Exported so other grid-shaped harnesses (the
// internal/validate property generator) map Points to clusters the same
// way campaigns do.
func ClusterConfig(p Point) pfs.Config {
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	cfg.DefaultStripeCount = p.StripeCount
	cfg.DefaultStripeSize = p.StripeSize
	if cfg.OSTDevice = blockdev.Preset(p.Device); cfg.OSTDevice == nil {
		cfg.OSTDevice = blockdev.Preset("hdd")
	}
	if p.Faults != "" {
		cfg.Resilience = pfs.DefaultResilience()
	}
	return cfg
}

// newStack builds the stack of point p whose engine is seeded with seed:
// ClusterConfig's file system under the point's fault campaign, tier and
// compressor.
func newStack(p Point, seed int64) *stack.Stack {
	s, err := stack.New(stack.Config{
		Cluster: ClusterConfig(p), Seed: seed,
		Tier: p.Tier, Compress: p.Compress, Faults: p.Faults,
	})
	if err != nil {
		panic(fmt.Sprintf("campaign: unvalidated point %s: %v", p.Label(), err))
	}
	return s
}

// idleStack is a stack of point p that no job holds.
type idleStack struct {
	p Point
	s *stack.Stack
}

// clusterCache lends stacks to the jobs of one RunContext call, so that
// the repetitions of a point share one engine and file system instead of
// building them per job. A job takes a stack of its point, an idle one
// reset (stack.Stack.Reset) when there is one and a new one otherwise,
// and gives it back once its simulation returns. A job that panics never
// gives its stack back, so no stack carries the state a panic left. At
// most max (>= 1) stacks, one per worker, are kept idle; the oldest is
// dropped first.
type clusterCache struct {
	mu   sync.Mutex
	idle []idleStack
	max  int
}

// take returns a stack of point p whose engine is seeded with seed.
func (c *clusterCache) take(p Point, seed int64) *stack.Stack {
	c.mu.Lock()
	for i, is := range c.idle {
		if is.p == p {
			c.idle = slices.Delete(c.idle, i, i+1)
			c.mu.Unlock()
			is.s.Reset(seed)
			return is.s
		}
	}
	c.mu.Unlock()
	return newStack(p, seed)
}

// put returns s, a stack of point p whose job has finished, to the idle
// stacks.
func (c *clusterCache) put(p Point, s *stack.Stack) {
	c.mu.Lock()
	if len(c.idle) == c.max {
		c.idle = slices.Delete(c.idle, 0, 1)
	}
	c.idle = append(c.idle, idleStack{p, s})
	c.mu.Unlock()
}

// simulate executes one run on a stack of p from clusters: the point's
// fault campaign (if any) and the spec's workload, reduced to a flat
// metric map. A reset stack gives the same metrics as a new one.
func simulate(spec Spec, p Point, seed int64, clusters *clusterCache) map[string]float64 {
	s := clusters.take(p, seed)
	m := run(spec, p, s)
	clusters.put(p, s)
	return m
}

// run simulates one job of spec at point p on s.
func run(spec Spec, p Point, s *stack.Stack) map[string]float64 {
	h := workload.NewHarnessOn(s.E, s.FS, p.Ranks, "camp", nil, s.Provider)
	var m map[string]float64
	switch spec.Workload {
	case WorkloadCheckpoint:
		m = simulateCheckpoint(h, spec, p)
	default:
		m = simulateIOR(h, p)
	}
	st := s.FS.ClientStatsTotal()
	m["retries"] = float64(st.Retries)
	m["timed_out_rpcs"] = float64(st.TimedOutRPCs)
	m["failed_rpcs"] = float64(st.FailedRPCs)
	for _, bb := range s.Provider.Buffers() {
		bst := bb.Stats()
		m["bb_stalls"] += float64(bst.Stalls)
		m["bb_drain_errors"] += float64(bst.DrainErrors)
		if mb := float64(bst.PeakUsed) / 1e6; mb > m["bb_peak_used_MB"] {
			m["bb_peak_used_MB"] = mb
		}
	}
	if s.Stage != nil {
		cst := s.Stage.StageStats()
		m["compress_ratio"] = cst.Ratio()
		m["compress_cpu_s"] = cst.CompressSeconds + cst.DecompressSeconds
		if cpu := cst.CompressSeconds + cst.DecompressSeconds; cpu > 0 {
			m["compress_MBps"] = float64(cst.LogicalWritten+cst.LogicalRead) / 1e6 / cpu
		}
	}
	return m
}

func simulateIOR(h *workload.Harness, p Point) map[string]float64 {
	var pat workload.Pattern
	switch p.Pattern {
	case "strided":
		pat = workload.Strided
	case "random":
		pat = workload.Random
	default:
		pat = workload.Sequential
	}
	rep := workload.RunIOR(h, workload.IORConfig{
		Ranks:        p.Ranks,
		BlockSize:    p.BlockSize,
		TransferSize: p.TransferSize,
		SharedFile:   true,
		Pattern:      pat,
		ReadBack:     true,
		Collective:   p.Collective,
		StripeCount:  p.StripeCount,
		StripeSize:   p.StripeSize,
	})
	return map[string]float64{
		"write_MBps":  rep.WriteMBps,
		"read_MBps":   rep.ReadMBps,
		"makespan_ms": rep.Makespan.Seconds() * 1e3,
	}
}

func simulateCheckpoint(h *workload.Harness, spec Spec, p Point) map[string]float64 {
	rep := workload.RunCheckpoint(h, workload.CheckpointConfig{
		Ranks:        p.Ranks,
		BytesPerRank: p.BlockSize,
		Steps:        spec.Steps,
		ComputeTime:  stepDuration,
		TransferSize: p.TransferSize,
		ReuseFile:    true,
	})
	worst := des.Time(0)
	for _, d := range rep.StepIOTime {
		if d > worst {
			worst = d
		}
	}
	return map[string]float64{
		"effective_MBps": rep.EffectiveMBps,
		"makespan_ms":    rep.Makespan.Seconds() * 1e3,
		"io_fraction":    rep.IOFraction,
		"io_errors":      float64(rep.IOErrors),
		"worst_step_ms":  worst.Seconds() * 1e3,
	}
}
