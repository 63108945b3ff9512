// Package io500 implements an IO500-style composite benchmark suite over
// the simulated cluster: the standard phase set — ior-easy write/read
// (file-per-process large sequential), ior-hard write/read (shared-file
// small strided collective), mdtest-easy (create/stat/delete, empty
// files), mdtest-hard (create/stat/read/delete with per-file payloads),
// and find (parallel namespace walk with size matching) — executed over
// any storage tier, scored the IO500 way: the bandwidth sub-score is the
// geometric mean of the four bw phases in GiB/s, the metadata sub-score
// the geometric mean of the eight md phases in kIOPS, and the overall
// score the geometric mean of the two.
//
// Each benchmark step runs on its own engine/cluster seeded identically,
// so the ior-easy and mdtest-easy phases reproduce the standalone
// cmd/iorbench and cmd/mdtestbench results bit-for-bit at the same
// configuration (the cross-command equivalence tests pin this), and the
// steps can execute in parallel on a campaign.Pool with results indexed
// by step — the Result is byte-identical at any worker count.
// internal/surveystats runs the suite across a config grid to build a
// simulated submission corpus in the style of "A Treasure Trove of
// Performance: Analyzing the IO500 Submission Data".
package io500

import (
	"fmt"
	"math"

	"pioeval/internal/blockdev"
	"pioeval/internal/campaign"
	"pioeval/internal/des"
	"pioeval/internal/mpi"
	"pioeval/internal/posixio"
	"pioeval/internal/reduce"
	"pioeval/internal/stack"
	"pioeval/internal/storage"
	"pioeval/internal/trace"
	"pioeval/internal/validate"
	"pioeval/internal/workload"
)

// Phase kinds.
const (
	KindBW = "bw" // bandwidth phase, scored in GiB/s
	KindMD = "md" // metadata phase, scored in kIOPS
)

// Standard phase names, in the IO500 list's reporting order.
const (
	IorEasyWrite     = "ior-easy-write"
	MdtestEasyWrite  = "mdtest-easy-write"
	IorHardWrite     = "ior-hard-write"
	MdtestHardWrite  = "mdtest-hard-write"
	Find             = "find"
	IorEasyRead      = "ior-easy-read"
	MdtestEasyStat   = "mdtest-easy-stat"
	MdtestEasyDelete = "mdtest-easy-delete"
	IorHardRead      = "ior-hard-read"
	MdtestHardRead   = "mdtest-hard-read"
	MdtestHardStat   = "mdtest-hard-stat"
	MdtestHardDelete = "mdtest-hard-delete"
)

// PhaseOrder is the canonical reporting order of the twelve scored phases.
var PhaseOrder = []string{
	IorEasyWrite, MdtestEasyWrite, IorHardWrite, MdtestHardWrite, Find,
	IorEasyRead, MdtestEasyStat, MdtestEasyDelete, IorHardRead,
	MdtestHardRead, MdtestHardStat, MdtestHardDelete,
}

// PhaseKind returns the scoring class of a standard phase name: every
// ior-* phase is bandwidth, everything else metadata.
func PhaseKind(name string) string {
	if len(name) >= 4 && name[:4] == "ior-" {
		return KindBW
	}
	return KindMD
}

// Config parameterizes one suite execution (one "submission").
type Config struct {
	Ranks  int    `json:"ranks"`
	Device string `json:"device"` // hdd, ssd, nvme
	Tier   string `json:"tier"`   // direct, bb, nodelocal
	// Compress stacks a data-reduction stage (a reduce preset: lz,
	// deflate, zfp, sz) over the tier on every step; "" or "none" runs
	// uncompressed. omitempty keeps uncompressed Result JSON — and the
	// golden transcripts pinned to it — byte-identical to before the
	// axis existed.
	Compress    string `json:"compress,omitempty"`
	StripeCount int    `json:"stripe_count"`
	StripeSize  int64  `json:"stripe_size"`
	Seed        int64  `json:"seed"`

	// Workers bounds how many benchmark steps run concurrently (each step
	// owns a private engine and cluster); <= 0 selects GOMAXPROCS. The
	// Result is byte-identical at any value, so Workers is excluded from
	// serialization.
	Workers int `json:"-"`
	// Check arms the runtime invariant checkers on every step's engine
	// and collects violations into the Result. Observation only — it never
	// changes simulated timing, so results match the unchecked run.
	Check bool `json:"-"`

	// Sizing knobs (zero selects the default noted).
	EasyBlock     int64 `json:"easy_block"`      // ior-easy per-rank bytes (16 MB)
	EasyXfer      int64 `json:"easy_xfer"`       // ior-easy transfer size (1 MB)
	HardXfer      int64 `json:"hard_xfer"`       // ior-hard transfer size (47008 B)
	HardOps       int   `json:"hard_ops"`        // ior-hard transfers per rank (64)
	EasyFiles     int   `json:"easy_files"`      // mdtest-easy files per rank (64)
	HardFiles     int   `json:"hard_files"`      // mdtest-hard files per rank (32)
	HardFileBytes int64 `json:"hard_file_bytes"` // mdtest-hard per-file payload (3901 B)
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 4
	}
	if c.Device == "" {
		c.Device = "hdd"
	}
	if c.Tier == "" {
		c.Tier = storage.TierDirect
	}
	if c.Compress == "none" {
		c.Compress = ""
	}
	if c.StripeCount <= 0 {
		c.StripeCount = 4
	}
	if c.StripeSize <= 0 {
		c.StripeSize = 1 << 20
	}
	if c.EasyBlock <= 0 {
		c.EasyBlock = 16 << 20
	}
	if c.EasyXfer <= 0 {
		c.EasyXfer = 1 << 20
	}
	if c.HardXfer <= 0 {
		c.HardXfer = 47008
	}
	if c.HardOps <= 0 {
		c.HardOps = 64
	}
	if c.EasyFiles <= 0 {
		c.EasyFiles = 64
	}
	if c.HardFiles <= 0 {
		c.HardFiles = 32
	}
	if c.HardFileBytes <= 0 {
		c.HardFileBytes = 3901
	}
	return c
}

// Validate rejects configurations the suite cannot run.
func (c Config) Validate() error {
	c = c.withDefaults()
	if blockdev.Preset(c.Device) == nil {
		return fmt.Errorf("io500: unknown device %q (want hdd, ssd, or nvme)", c.Device)
	}
	switch c.Tier {
	case storage.TierDirect, storage.TierBB, storage.TierNodeLocal:
	default:
		return fmt.Errorf("io500: unknown tier %q (want %s, %s, or %s)",
			c.Tier, storage.TierDirect, storage.TierBB, storage.TierNodeLocal)
	}
	if c.Compress != "" {
		if _, ok := reduce.Lookup(c.Compress); !ok {
			return fmt.Errorf("io500: unknown compressor %q (want none or one of %v)", c.Compress, reduce.Names())
		}
	}
	if c.EasyXfer > c.EasyBlock {
		return fmt.Errorf("io500: easy transfer size %d exceeds easy block size %d", c.EasyXfer, c.EasyBlock)
	}
	return nil
}

// Phase is one scored benchmark phase.
type Phase struct {
	Name    string  `json:"name"`
	Kind    string  `json:"kind"`            // KindBW or KindMD
	Value   float64 `json:"value"`           // GiB/s (bw) or kIOPS (md)
	Seconds float64 `json:"seconds"`         // simulated phase duration
	Bytes   int64   `json:"bytes,omitempty"` // bw phases: bytes moved
	Ops     int64   `json:"ops,omitempty"`   // md phases: operations performed
	Found   int64   `json:"found,omitempty"` // find only: entries matching the size predicate
}

// Result is one full suite execution.
type Result struct {
	Config     Config   `json:"config"`
	Phases     []Phase  `json:"phases"` // in PhaseOrder
	BWScore    float64  `json:"bw_score_GiBps"`
	MDScore    float64  `json:"md_score_kIOPS"`
	Score      float64  `json:"score"`
	Violations []string `json:"violations,omitempty"` // armed-invariant violations, step order
}

// Phase returns the named phase (zero Phase if absent).
func (r *Result) Phase(name string) Phase {
	for _, p := range r.Phases {
		if p.Name == name {
			return p
		}
	}
	return Phase{}
}

// Values flattens the phases into a name → value map, the form the survey
// analyzer and Score consume.
func (r *Result) Values() map[string]float64 {
	m := make(map[string]float64, len(r.Phases))
	for _, p := range r.Phases {
		m[p.Name] = p.Value
	}
	return m
}

// Score computes the IO500 scores from a phase-value map: the geometric
// mean of the bandwidth phases (GiB/s), of the metadata phases (kIOPS),
// and of the two sub-scores. Any missing or non-positive phase collapses
// its class score (and the total) to zero, matching the list's rule that
// every phase must complete.
func Score(values map[string]float64) (bw, md, total float64) {
	var bws, mds []float64
	for _, name := range PhaseOrder {
		v, ok := values[name]
		if !ok {
			v = 0
		}
		if PhaseKind(name) == KindBW {
			bws = append(bws, v)
		} else {
			mds = append(mds, v)
		}
	}
	bw, md = geomean(bws), geomean(mds)
	total = geomean([]float64{bw, md})
	return bw, md, total
}

// geomean returns the geometric mean, zero if any input is non-positive.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// Run executes the full suite: five benchmark steps (ior-easy, ior-hard,
// mdtest-easy, mdtest-hard, find), each on a private engine and cluster
// seeded with cfg.Seed, dispatched over a bounded worker pool with
// results stored by step index — the Result is bit-identical at any
// cfg.Workers. A step that panics (a simulated deadlock) surfaces as an
// error naming the step.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	steps := []struct {
		name string
		run  func(Config) ([]Phase, []string)
	}{
		{"ior-easy", runIorEasy},
		{"ior-hard", runIorHard},
		{"mdtest-easy", runMdtestEasy},
		{"mdtest-hard", runMdtestHard},
		{"find", runFind},
	}
	type stepOut struct {
		phases     []Phase
		violations []string
	}
	outs := make([]stepOut, len(steps))
	pr := campaign.Pool(len(steps), campaign.Options{Workers: cfg.Workers}, func(i int) {
		ph, vio := steps[i].run(cfg)
		outs[i] = stepOut{ph, vio}
	})
	if len(pr.Panicked) > 0 {
		p := pr.Panicked[0]
		return nil, fmt.Errorf("io500: step %s panicked: %s", steps[p.Index].name, p.Value)
	}
	byName := map[string]Phase{}
	res := &Result{Config: cfg}
	for _, o := range outs {
		for _, p := range o.phases {
			byName[p.Name] = p
		}
		res.Violations = append(res.Violations, o.violations...)
	}
	for _, name := range PhaseOrder {
		p, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("io500: phase %s missing from step results", name)
		}
		res.Phases = append(res.Phases, p)
	}
	res.BWScore, res.MDScore, res.Score = Score(res.Values())
	return res, nil
}

// newStep stands up a stack (engine, cluster, tier provider and stage)
// and a rank harness for one step, with its invariants armed when
// requested. The cluster shape is campaign.ClusterConfig's — identical to
// the standalone benchmark commands' default cluster — and ranks are
// named cn0..cnN-1 exactly as cmd/iorbench and cmd/mdtestbench name them,
// so phase results reproduce the standalone commands bit-for-bit.
func newStep(cfg Config) (h *workload.Harness, inv *validate.Invariants) {
	st, err := stack.New(stack.Config{
		Cluster: campaign.ClusterConfig(campaign.Point{
			Ranks: cfg.Ranks, Device: cfg.Device,
			StripeCount: cfg.StripeCount, StripeSize: cfg.StripeSize,
		}),
		Seed: cfg.Seed, Tier: cfg.Tier, Compress: cfg.Compress,
	})
	if err != nil {
		panic(fmt.Sprintf("io500: unvalidated config: %v", err))
	}
	var col *trace.Collector
	if cfg.Check {
		inv, col = validate.Arm(st.E, st.FS, st.Provider)
	}
	return workload.NewHarnessOn(st.E, st.FS, cfg.Ranks, "cn", col, st.Provider), inv
}

// finish collects a step's armed-invariant violations and the provider
// finalize error (burst-buffer drain failures), prefixed with the step
// name.
func finish(step string, h *workload.Harness, inv *validate.Invariants) []string {
	var out []string
	if h.FinalizeErr != nil {
		out = append(out, fmt.Sprintf("%s: tier-finalize: %v", step, h.FinalizeErr))
	}
	if inv != nil {
		for _, v := range inv.Finish() {
			out = append(out, fmt.Sprintf("%s: %s", step, v))
		}
	}
	return out
}

// gibPerS converts bytes over a simulated duration to GiB/s.
func gibPerS(bytes int64, t des.Time) float64 {
	if t <= 0 {
		return 0
	}
	return float64(bytes) / float64(1<<30) / t.Seconds()
}

// kiops converts an op count over a simulated duration to kIOPS.
func kiops(ops int64, t des.Time) float64 {
	if t <= 0 {
		return 0
	}
	return float64(ops) / 1e3 / t.Seconds()
}

// runIorEasy executes the file-per-process large-sequential IOR phase
// pair with exactly the configuration cmd/iorbench would use, yielding
// ior-easy-write and ior-easy-read.
func runIorEasy(cfg Config) ([]Phase, []string) {
	h, inv := newStep(cfg)
	rep := workload.RunIOR(h, workload.IORConfig{
		Ranks: cfg.Ranks, BlockSize: cfg.EasyBlock, TransferSize: cfg.EasyXfer,
		Segments: 1, SharedFile: false, Pattern: workload.Sequential,
		ReadBack: true, Collective: false,
	})
	return []Phase{
		{Name: IorEasyWrite, Kind: KindBW, Bytes: rep.TotalBytes,
			Seconds: rep.WriteTime.Seconds(), Value: gibPerS(rep.TotalBytes, rep.WriteTime)},
		{Name: IorEasyRead, Kind: KindBW, Bytes: rep.TotalBytes,
			Seconds: rep.ReadTime.Seconds(), Value: gibPerS(rep.TotalBytes, rep.ReadTime)},
	}, finish("ior-easy", h, inv)
}

// runIorHard executes the shared-file small-strided collective IOR phase
// pair, yielding ior-hard-write and ior-hard-read.
func runIorHard(cfg Config) ([]Phase, []string) {
	h, inv := newStep(cfg)
	block := cfg.HardXfer * int64(cfg.HardOps)
	rep := workload.RunIOR(h, workload.IORConfig{
		Ranks: cfg.Ranks, BlockSize: block, TransferSize: cfg.HardXfer,
		Segments: 1, SharedFile: true, Pattern: workload.Strided,
		ReadBack: true, Collective: true,
	})
	return []Phase{
		{Name: IorHardWrite, Kind: KindBW, Bytes: rep.TotalBytes,
			Seconds: rep.WriteTime.Seconds(), Value: gibPerS(rep.TotalBytes, rep.WriteTime)},
		{Name: IorHardRead, Kind: KindBW, Bytes: rep.TotalBytes,
			Seconds: rep.ReadTime.Seconds(), Value: gibPerS(rep.TotalBytes, rep.ReadTime)},
	}, finish("ior-hard", h, inv)
}

// runMdtestEasy executes create/stat/delete over empty files with exactly
// the configuration cmd/mdtestbench would use.
func runMdtestEasy(cfg Config) ([]Phase, []string) {
	h, inv := newStep(cfg)
	rep := workload.RunMDTest(h, workload.MDTestConfig{
		Ranks: cfg.Ranks, FilesPerRank: cfg.EasyFiles,
		Phases: []string{workload.MDPhaseCreate, workload.MDPhaseStat, workload.MDPhaseDelete},
	})
	ops := int64(rep.TotalFiles)
	return []Phase{
		{Name: MdtestEasyWrite, Kind: KindMD, Ops: ops,
			Seconds: rep.CreateTime.Seconds(), Value: kiops(ops, rep.CreateTime)},
		{Name: MdtestEasyStat, Kind: KindMD, Ops: ops,
			Seconds: rep.StatTime.Seconds(), Value: kiops(ops, rep.StatTime)},
		{Name: MdtestEasyDelete, Kind: KindMD, Ops: ops,
			Seconds: rep.RemoveTime.Seconds(), Value: kiops(ops, rep.RemoveTime)},
	}, finish("mdtest-easy", h, inv)
}

// runMdtestHard executes create/stat/read/delete with per-file payloads.
func runMdtestHard(cfg Config) ([]Phase, []string) {
	h, inv := newStep(cfg)
	rep := workload.RunMDTest(h, workload.MDTestConfig{
		Ranks: cfg.Ranks, FilesPerRank: cfg.HardFiles, WriteBytes: cfg.HardFileBytes,
		BasePath: "/mdtest-hard",
		Phases: []string{workload.MDPhaseCreate, workload.MDPhaseStat,
			workload.MDPhaseRead, workload.MDPhaseDelete},
	})
	ops := int64(rep.TotalFiles)
	return []Phase{
		{Name: MdtestHardWrite, Kind: KindMD, Ops: ops,
			Seconds: rep.CreateTime.Seconds(), Value: kiops(ops, rep.CreateTime)},
		{Name: MdtestHardRead, Kind: KindMD, Ops: ops,
			Seconds: rep.ReadTime.Seconds(), Value: kiops(ops, rep.ReadTime)},
		{Name: MdtestHardStat, Kind: KindMD, Ops: ops,
			Seconds: rep.StatTime.Seconds(), Value: kiops(ops, rep.StatTime)},
		{Name: MdtestHardDelete, Kind: KindMD, Ops: ops,
			Seconds: rep.RemoveTime.Seconds(), Value: kiops(ops, rep.RemoveTime)},
	}, finish("mdtest-hard", h, inv)
}

// runFind populates a namespace shaped like the mdtest-easy and
// mdtest-hard trees (untimed setup), then times a parallel walk: each
// rank readdirs its own subtrees and stats every entry, counting files
// whose size reaches the mdtest-hard payload — the IO500 find's
// size-predicate match. The rate counts readdir + stat operations.
func runFind(cfg Config) ([]Phase, []string) {
	h, inv := newStep(cfg)
	var fStart, fEnd des.Time
	perOps := make([]int64, cfg.Ranks)
	perFound := make([]int64, cfg.Ranks)
	trees := []struct {
		base  string
		files int
		bytes int64
	}{
		{"/find-easy", cfg.EasyFiles, 0},
		{"/find-hard", cfg.HardFiles, cfg.HardFileBytes},
	}
	h.Run(func(r *mpi.Rank, env *posixio.Env) {
		p := r.Proc()
		// Untimed setup: this rank's file population.
		for _, tr := range trees {
			_ = env.Mkdir(p, tr.base)
			dir := fmt.Sprintf("%s/rank%d", tr.base, r.ID())
			_ = env.Mkdir(p, dir)
			files := workload.Names(dir+"/f", 0, tr.files)
			for i := 0; i < tr.files; i++ {
				fd, err := env.Open(p, files.At(i), posixio.OCreate|posixio.OExcl)
				if err != nil {
					continue
				}
				if tr.bytes > 0 {
					_, _ = env.Write(p, fd, tr.bytes)
					// Sync so staged payloads are durable (and their
					// sizes stat-visible) on write-back tiers before
					// the walk begins.
					_ = env.Fsync(p, fd)
				}
				_ = env.Close(p, fd)
			}
		}
		r.Barrier()
		if r.ID() == 0 {
			fStart = r.Now()
		}
		// Timed walk.
		for _, tr := range trees {
			dir := fmt.Sprintf("%s/rank%d", tr.base, r.ID())
			names, err := env.Readdir(p, dir)
			perOps[r.ID()]++
			if err != nil {
				continue
			}
			for _, name := range names {
				// Readdir yields full paths, ready for stat.
				st, err := env.Stat(p, name)
				perOps[r.ID()]++
				if err == nil && !st.IsDir && st.Size >= cfg.HardFileBytes {
					perFound[r.ID()]++
				}
			}
		}
		r.Barrier()
		if r.ID() == 0 {
			fEnd = r.Now()
		}
	})
	var ops, found int64
	for i := range perOps {
		ops += perOps[i]
		found += perFound[i]
	}
	t := fEnd - fStart
	return []Phase{
		{Name: Find, Kind: KindMD, Ops: ops, Found: found,
			Seconds: t.Seconds(), Value: kiops(ops, t)},
	}, finish("find", h, inv)
}
