package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"pioeval/internal/campaign"
	"pioeval/internal/cli"
	"pioeval/internal/des"
	"pioeval/internal/io500"
	"pioeval/internal/pfs"
	"pioeval/internal/reduce"
	"pioeval/internal/storage"
	"pioeval/internal/workload"
)

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"campaign-grid", "scale-ckpt", "io500-bb-lz", "siod-mix"}

// sizing fixes the amount of work in one unit of each workload.
type sizing struct {
	campaignReps   int
	scaleRanks     int
	io500Ranks     int
	io500EasyFiles int
	io500HardFiles int
	siodRequests   int
}

var sizes = map[string]sizing{
	// A campaign-grid unit runs 48x21 = 1008 jobs and a siod-mix unit 1000
	// requests, so at least ten of a unit's requests lie beyond its p99.
	"full": {campaignReps: 21, scaleRanks: 100_000, io500Ranks: 16, io500EasyFiles: 128, io500HardFiles: 64, siodRequests: 1000},
	"tiny": {campaignReps: 1, scaleRanks: 512, io500Ranks: 4, io500EasyFiles: 8, io500HardFiles: 4, siodRequests: 40},
}

// bench is one benchmark workload: a fixed unit of work run untraced
// through the public entry point, the same unit rebuilt with observers, and
// (for workloads whose units do not time their own) a set-up measurement.
type bench struct {
	setup  func() (time.Duration, error)
	run    func() (*unit, error)
	traced func() (*unit, *layerStats, error)
}

// setupSamples is how many times a separately measured set-up is timed.
const setupSamples = 15

// unit is the outcome of one unit of work.
type unit struct {
	// digest identifies the unit's whole output; simDigest the simulated
	// part a traced rebuild must reproduce (the same unless noted).
	digest, simDigest string
	// setup is the set-up time measured inside the unit, 0 when the
	// workload measures set-up separately.
	setup time.Duration
	// latencies holds one entry per request the unit served.
	latencies []time.Duration
	// attempted and failed count the unit's output checks.
	attempted, failed int
	problems          []string
	// pinned is the state retained heap is measured with, holding ranks
	// simulated ranks.
	pinned any
	ranks  int
}

func (u *unit) fail(format string, args ...any) {
	u.failed++
	u.problems = append(u.problems, fmt.Sprintf(format, args...))
}

func newWorkload(name string, seed int64, sz sizing) (*bench, error) {
	switch name {
	case "campaign-grid":
		return newCampaignGrid(seed, sz), nil
	case "scale-ckpt":
		return newScaleCkpt(seed, sz), nil
	case "io500-bb-lz":
		return newIO500(seed, sz), nil
	case "siod-mix":
		return newSiodMix(seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

//go:embed reference.json
var referenceJSON []byte

// reference is the embedded record of expected outputs and of what each
// workload and layer metric is for.
type reference struct {
	// Digests holds each workload's output digest at the default seed,
	// keyed by size then workload.
	Digests map[string]map[string]string `json:"digests"`
}

func embeddedReference() reference {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		panic(fmt.Sprintf("perfbench: embedded reference.json: %v", err))
	}
	return r
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:16])
}

// ---- campaign-grid ----

// baselineGrid is cmd/campaign's built-in 48-point grid with the seed and
// repetition count left open.
const baselineGrid = `
campaign "baseline-grid" {
    workload ior
    seed %d
    reps %d
    ranks 2, 4
    device hdd, ssd, nvme
    stripe-count 1, 4
    block-size 4MB
    transfer-size 256KB, 1MB
    pattern sequential, random
}
`

func newCampaignGrid(seed int64, sz sizing) *bench {
	src := fmt.Sprintf(baselineGrid, seed, sz.campaignReps)
	parse := func() (campaign.Spec, error) {
		spec, err := campaign.ParseSpec(src)
		if err != nil {
			return spec, err
		}
		return spec, spec.Validate()
	}
	return &bench{
		// Set-up is parse, validate and expand: microseconds, so one
		// sample times a batch of them.
		setup: func() (time.Duration, error) {
			const batch = 2000
			t0 := time.Now()
			for i := 0; i < batch; i++ {
				spec, err := parse()
				if err != nil {
					return 0, err
				}
				_ = spec.Expand()
			}
			return time.Since(t0) / batch, nil
		},
		run: func() (*unit, error) {
			spec, err := parse()
			if err != nil {
				return nil, err
			}
			u := &unit{}
			last := time.Now()
			opt := campaign.Options{Workers: 1, OnProgress: func(campaign.Progress) {
				now := time.Now()
				u.latencies = append(u.latencies, now.Sub(last))
				last = now
			}}
			rep, err := campaign.RunContext(context.Background(), spec, opt)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				return nil, err
			}
			u.digest = sha(buf.Bytes())
			runs, err := json.Marshal(rep.Runs)
			if err != nil {
				return nil, err
			}
			u.simDigest = sha(runs)
			u.attempted = len(rep.Runs)
			for _, je := range rep.Errors {
				u.fail("campaign run %d (point %d, rep %d): %s", je.Run, je.Point, je.Rep, je.Msg)
			}
			if rep.Cancelled {
				u.fail("campaign cancelled")
			}
			for _, r := range rep.Runs {
				u.ranks += rep.Points[r.Point].Point.Ranks
			}
			u.pinned = rep
			return u, nil
		},
		traced: func() (*unit, *layerStats, error) {
			spec, err := parse()
			if err != nil {
				return nil, nil, err
			}
			return tracedCampaign(spec)
		},
	}
}

// ---- scale-ckpt ----

// scaleHash is a stable digest of every simulated quantity in a sharded
// report, computed the way `simfs -workers-sweep` does.
func scaleHash(rep workload.ShardedReport) string {
	rep.Workers = 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", rep)
	return fmt.Sprintf("%016x", h.Sum64())
}

func newScaleCkpt(seed int64, sz sizing) *bench {
	// The cluster is simfs's default flags.
	flags := cli.ClusterFlags{OSS: 4, OSTsPerOSS: 2, Device: "hdd", MDSThreads: 8, StripeCnt: 4, StripeSize: "1MB", Seed: seed}
	config := func(attach func(int, *des.Engine, *pfs.FS)) (workload.ShardedConfig, error) {
		fscfg, err := flags.Config()
		return workload.ShardedConfig{
			Scale: workload.ScaleConfig{
				Ranks: sz.scaleRanks, BytesPerRank: 1 << 20, Steps: 1,
				TransferSize: 1 << 20, RanksPerNode: 64, StripeCount: 1,
			},
			Shards: 4, Workers: 1, FS: fscfg, Seed: seed, AttachShard: attach,
		}, err
	}
	check := func(u *unit, rep workload.ShardedReport) {
		u.digest = scaleHash(rep)
		u.simDigest = u.digest
		u.attempted = rep.Scale.Ranks * rep.Scale.Steps
		if rep.IOErrors > 0 {
			u.failed += int(rep.IOErrors)
			u.problems = append(u.problems, fmt.Sprintf("scale checkpoint: %d I/O errors", rep.IOErrors))
		}
	}
	return &bench{
		run: func() (*unit, error) {
			var keep []*pfs.FS
			var ready time.Time
			cfg, err := config(func(_ int, _ *des.Engine, fs *pfs.FS) {
				keep = append(keep, fs)
				ready = time.Now()
			})
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			rep := workload.RunShardedCheckpoint(cfg)
			u := &unit{setup: ready.Sub(t0), latencies: []time.Duration{time.Since(t0)}}
			check(u, rep)
			// The file systems pin the simulation state, as simfs -ranks
			// does for its heap-per-rank figure.
			u.pinned, u.ranks = keep, sz.scaleRanks
			return u, nil
		},
		traced: func() (*unit, *layerStats, error) {
			ls := newLayerStats()
			var sims []*simTrace
			cfg, err := config(func(_ int, e *des.Engine, fs *pfs.FS) {
				st := newSimTrace(e, fs, nil, "")
				sims = append(sims, st)
			})
			if err != nil {
				return nil, nil, err
			}
			rep := workload.RunShardedCheckpoint(cfg)
			for _, st := range sims {
				st.finish(ls)
			}
			ls.vals["des.windows"] = float64(rep.Windows)
			u := &unit{}
			check(u, rep)
			return u, ls, nil
		},
	}
}

// ---- io500-bb-lz ----

// io500Config is the suite configuration with every defaulted field set,
// so the traced rebuild's Result.Config equals io500.Run's.
func io500Config(seed int64, sz sizing) io500.Config {
	return io500.Config{
		Ranks: sz.io500Ranks, Device: "hdd", Tier: storage.TierBB, Compress: "lz",
		StripeCount: 4, StripeSize: 1 << 20, Seed: seed, Workers: 1,
		EasyBlock: 16 << 20, EasyXfer: 1 << 20, HardXfer: 47008, HardOps: 64,
		EasyFiles: sz.io500EasyFiles, HardFiles: sz.io500HardFiles, HardFileBytes: 3901,
	}
}

func newIO500(seed int64, sz sizing) *bench {
	cfg := io500Config(seed, sz)
	return &bench{
		// Set-up is standing up one step's stack (engine, cluster, tier,
		// compressor, ranks) as the suite does for each of its five steps.
		setup: func() (time.Duration, error) {
			const batch = 100
			t0 := time.Now()
			for i := 0; i < batch; i++ {
				e := des.NewEngine(cfg.Seed)
				fs := pfs.New(e, campaign.ClusterConfig(campaign.Point{
					Ranks: cfg.Ranks, Device: cfg.Device, StripeCount: cfg.StripeCount, StripeSize: cfg.StripeSize,
				}))
				pr, err := storage.NewProvider(e, fs, cfg.Tier, storage.ProviderConfig{})
				if err != nil {
					return 0, err
				}
				comp, err := reduce.New(cfg.Compress)
				if err != nil {
					return 0, err
				}
				pr.Push(comp)
				_ = workload.NewHarnessOn(e, fs, cfg.Ranks, "cn", nil, pr)
			}
			return time.Since(t0) / batch, nil
		},
		run: func() (*unit, error) {
			t0 := time.Now()
			res, err := io500.Run(cfg)
			if err != nil {
				return nil, err
			}
			u := &unit{latencies: []time.Duration{time.Since(t0)}}
			if err := io500Check(u, res); err != nil {
				return nil, err
			}
			u.pinned, u.ranks = res, cfg.Ranks
			return u, nil
		},
		traced: func() (*unit, *layerStats, error) { return tracedIO500(cfg) },
	}
}

func io500Check(u *unit, res *io500.Result) error {
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return err
	}
	u.digest = sha(buf.Bytes())
	u.simDigest = u.digest
	u.attempted = len(res.Phases)
	for _, v := range res.Violations {
		u.fail("io500: %s", v)
	}
	for _, p := range res.Phases {
		if p.Value <= 0 {
			u.fail("io500: phase %s scored %g", p.Name, p.Value)
		}
	}
	return nil
}
