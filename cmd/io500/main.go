// Command io500 runs the IO500-style composite benchmark suite on a
// simulated cluster: the standard twelve scored phases (ior-easy,
// ior-hard, mdtest-easy, mdtest-hard, find) over a chosen storage tier,
// reported as an IO500-list-style table or JSON with geometric-mean
// bandwidth/metadata sub-scores.
//
// With -survey it instead sweeps the suite across a device x tier x
// rank-count grid — a simulated submission corpus — and reports
// Treasure-Trove-style statistics: per-metric distributions, metric
// correlation matrices, and per-submission bottleneck attribution.
//
// Examples:
//
//	io500 -ranks 8 -device ssd -tier bb -validate
//	io500 -cpuprofile cpu.pprof -memprofile mem.pprof
//	io500 -survey -devices hdd,ssd,nvme -tiers direct,bb,nodelocal -rank-counts 2,4,8 -json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pioeval/internal/cli"
	"pioeval/internal/io500"
	"pioeval/internal/surveystats"
)

func main() { cli.Main("io500", run) }

// run is the whole command behind a testable seam: flags come from args,
// all output goes to the supplied writers, and failures — including
// armed-invariant violations under -validate — return as errors instead
// of exiting. The golden and equivalence tests drive it directly.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("io500", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ranks := fs.Int("ranks", 4, "MPI ranks")
	device := fs.String("device", "hdd", "OST device model: hdd, ssd, nvme")
	tier := fs.String("tier", "direct", "storage tier: direct, bb, nodelocal")
	compress := fs.String("compress", "none", "data-reduction stage over the tier: none, lz, deflate, zfp, sz")
	stripeCnt := fs.Int("stripe-count", 4, "stripe count")
	stripeStr := fs.String("stripe-size", "1MB", "stripe size")
	seed := fs.Int64("seed", 1, "simulation seed")
	workers := fs.Int("workers", 0, "concurrent benchmark steps (0 = GOMAXPROCS); results identical at any value")
	validate := fs.Bool("validate", false, "arm runtime invariant checkers; exit non-zero on any violation")
	checkWorkers := fs.Int("check-workers", 0, "self-check: also run at this worker count and fail unless output is byte-identical")
	jsonOut := fs.Bool("json", false, "emit JSON instead of text")

	easyBlockStr := fs.String("easy-block", "16MB", "ior-easy per-rank bytes")
	easyXferStr := fs.String("easy-xfer", "1MB", "ior-easy transfer size")
	hardXfer := fs.Int64("hard-xfer", 47008, "ior-hard transfer size in bytes")
	hardOps := fs.Int("hard-ops", 64, "ior-hard transfers per rank")
	easyFiles := fs.Int("easy-files", 64, "mdtest-easy files per rank")
	hardFiles := fs.Int("hard-files", 32, "mdtest-hard files per rank")
	hardBytes := fs.Int64("hard-bytes", 3901, "mdtest-hard per-file payload bytes")

	survey := fs.Bool("survey", false, "sweep a device x tier x rank-count grid and analyze the submission corpus")
	devicesStr := fs.String("devices", "hdd,ssd,nvme", "survey: comma-separated device models")
	tiersStr := fs.String("tiers", "direct,bb,nodelocal", "survey: comma-separated storage tiers")
	rankCountsStr := fs.String("rank-counts", "2,4,8", "survey: comma-separated rank counts")
	compressorsStr := fs.String("compressors", "none", "survey: comma-separated data-reduction stages (none, lz, deflate, zfp, sz)")
	csvPath := fs.String("csv", "", "survey: also write the submission table as CSV to this path (- for stdout)")
	var prof cli.Profiles
	prof.Register(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if err := cli.MaxArgs(fs, 0); err != nil {
		return err
	}
	if err := cli.RequirePositive(fs, "ranks", "stripe-count", "hard-xfer", "hard-ops", "easy-files", "hard-files", "hard-bytes"); err != nil {
		return err
	}
	easyBlock, err := cli.SizeAtLeast("easy-block", *easyBlockStr, 1)
	if err != nil {
		return err
	}
	easyXfer, err := cli.SizeAtLeast("easy-xfer", *easyXferStr, 1)
	if err != nil {
		return err
	}
	stripeSize, err := cli.SizeAtLeast("stripe-size", *stripeStr, 1)
	if err != nil {
		return err
	}
	cfg := io500.Config{
		Ranks: *ranks, Device: *device, Tier: *tier, Compress: *compress,
		StripeCount: *stripeCnt, StripeSize: stripeSize,
		Seed: *seed, Workers: *workers, Check: *validate,
		EasyBlock: easyBlock, EasyXfer: easyXfer,
		HardXfer: *hardXfer, HardOps: *hardOps,
		EasyFiles: *easyFiles, HardFiles: *hardFiles, HardFileBytes: *hardBytes,
	}

	return prof.Run(func() error {
		if *survey {
			return runSurvey(cfg, *devicesStr, *tiersStr, *rankCountsStr, *compressorsStr, *seed, *jsonOut, *csvPath, stdout)
		}
		return runSuite(cfg, *jsonOut, *checkWorkers, stdout)
	})
}

// runSuite executes one composite suite, optionally self-checking
// worker-count determinism, and fails on armed-invariant violations.
func runSuite(cfg io500.Config, jsonOut bool, checkWorkers int, stdout io.Writer) error {
	res, err := io500.Run(cfg)
	if err != nil {
		return err
	}
	if checkWorkers > 0 {
		alt := cfg
		alt.Workers = checkWorkers
		res2, err := io500.Run(alt)
		if err != nil {
			return fmt.Errorf("check-workers rerun: %w", err)
		}
		a, b := new(strings.Builder), new(strings.Builder)
		if err := res.WriteJSON(a); err != nil {
			return err
		}
		if err := res2.WriteJSON(b); err != nil {
			return err
		}
		if a.String() != b.String() {
			return fmt.Errorf("determinism self-check failed: output differs between workers=%d and workers=%d", cfg.Workers, checkWorkers)
		}
	}
	if jsonOut {
		if err := res.WriteJSON(stdout); err != nil {
			return err
		}
	} else if err := res.WriteText(stdout); err != nil {
		return err
	}
	if len(res.Violations) > 0 {
		return fmt.Errorf("%d invariant violation(s)", len(res.Violations))
	}
	return nil
}

// runSurvey builds the submission corpus over the requested grid and
// emits the analysis (text or JSON), plus the CSV table if asked.
func runSurvey(base io500.Config, devices, tiers, rankCounts, compressors string, seed int64, jsonOut bool, csvPath string, stdout io.Writer) error {
	rc, err := parseInts(rankCounts)
	if err != nil {
		return fmt.Errorf("rank-counts: %w", err)
	}
	// A pure-default compressor list stays off the grid entirely, so the
	// point expansion (and every derived seed) matches pre-axis surveys.
	comps := splitList(compressors)
	if len(comps) == 1 && (comps[0] == "none" || comps[0] == "") {
		comps = nil
	}
	base.Compress = ""
	g := surveystats.Grid{
		Devices:  splitList(devices),
		Tiers:    splitList(tiers),
		Ranks:    rc,
		Compress: comps,
		Base:     base,
		Seed:     seed,
		Workers:  base.Workers,
	}
	corpus, err := surveystats.BuildCorpus(g)
	if err != nil {
		return err
	}
	analysis, err := surveystats.Analyze(corpus)
	if err != nil {
		return err
	}
	rep := &surveystats.Report{Corpus: corpus, Analysis: analysis}
	if jsonOut {
		if err := rep.WriteJSON(stdout); err != nil {
			return err
		}
	} else if err := rep.WriteText(stdout); err != nil {
		return err
	}
	switch csvPath {
	case "":
	case "-":
		if err := rep.WriteCSV(stdout); err != nil {
			return err
		}
	default:
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		if err := rep.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// splitList splits a comma-separated list, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("value %d must be positive", n)
		}
		out = append(out, n)
	}
	return out, nil
}
