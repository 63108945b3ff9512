// Command evalcycle runs the paper's Figure-4 iterative evaluation loop:
// measure a workload on a baseline cluster, model it, predict and simulate
// a target cluster, and feed measurements back until the prediction
// converges.
//
// With -sweep, it instead runs the loop for every ordered (baseline,
// target) device pair, with repetitions, in parallel on the campaign
// runner's worker pool, and reports per-pair convergence statistics —
// the what-if exploration mode.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"pioeval/internal/blockdev"
	"pioeval/internal/campaign"
	"pioeval/internal/cli"
	"pioeval/internal/core"
	"pioeval/internal/iolang"
	"pioeval/internal/pfs"
	"pioeval/internal/stats"
)

const defaultScript = `
workload "default" {
    ranks 4
    loop 6 {
        compute 4ms
        write "/out" offset=rank*16MB size=4MB chunk=1MB
        read "/out" offset=rank*16MB size=1MB chunk=256KB
    }
}
`

func main() { cli.Main("evalcycle", run) }

// run is the whole command behind a testable seam: flags come from args,
// all output goes to the supplied writers, and failures return as errors
// instead of exiting. The golden test drives it with a bytes.Buffer.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("evalcycle", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseDev := fs.String("baseline", "ssd", "baseline OST device: hdd, ssd, nvme")
	targetDev := fs.String("target", "hdd", "target OST device: hdd, ssd, nvme")
	iters := fs.Int("iterations", 4, "max feedback iterations")
	tol := fs.Float64("tolerance", 0.25, "relative error tolerance")
	seed := fs.Int64("seed", 42, "simulation seed")
	sweep := fs.String("sweep", "", "comma-separated device list: run every ordered (baseline, target) pair in parallel")
	sweepReps := fs.Int("sweep-reps", 3, "repetitions per device pair in sweep mode")
	workers := fs.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if err := cli.RequirePositive(fs, "iterations", "sweep-reps"); err != nil {
		return err
	}

	script := defaultScript
	if fs.NArg() == 1 {
		b, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		script = string(b)
	}
	wl, err := iolang.Parse(script)
	if err != nil {
		return err
	}

	if *sweep != "" {
		return runSweep(ctx, stdout, stderr, wl, strings.Split(*sweep, ","), *sweepReps, *iters, *tol, *seed, *workers)
	}

	base, err := mkCfg(*baseDev)
	if err != nil {
		return err
	}
	target, err := mkCfg(*targetDev)
	if err != nil {
		return err
	}
	res, err := core.RunCycle(core.CycleConfig{
		Seed:          *seed,
		Baseline:      base,
		Target:        target,
		Source:        core.SyntheticSource{Workload: wl},
		MaxIterations: *iters,
		Tolerance:     *tol,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "Phase 1 (measurement, %s baseline): %d trace records, makespan %v\n",
		*baseDev, res.TraceRecords, res.BaselineMakespan)
	fmt.Fprintf(stdout, "  characterization: rw-ratio %.2f, seq-fraction %.2f, dominant access %s\n",
		res.ReadWriteRatio, res.SeqFraction, res.DominantSize)
	fmt.Fprintf(stdout, "Phase 2 (modeling): skeleton compression %.1fx, write fit latency(ns) = %.3g + %.3g*size\n",
		res.SkeletonRatio, res.WriteFit.Intercept, res.WriteFit.Slope)
	fmt.Fprintf(stdout, "Phase 3 (simulation of %s target, with feedback):\n", *targetDev)
	for _, it := range res.Iterations {
		fmt.Fprintf(stdout, "  iter %d: predicted %v, measured %v, rel.err %.3f (%d training samples)\n",
			it.Index, it.PredictedMakespan, it.MeasuredMakespan, it.RelError, it.TrainingSamples)
	}
	if res.Converged {
		fmt.Fprintf(stdout, "converged within tolerance %.2f\n", *tol)
	} else {
		fmt.Fprintf(stdout, "did not converge within %d iterations\n", *iters)
	}
	return nil
}

// mkCfg builds the flat-network deployment for one OST device model.
func mkCfg(dev string) (pfs.Config, error) {
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	if cfg.OSTDevice = blockdev.Preset(dev); cfg.OSTDevice == nil {
		return pfs.Config{}, fmt.Errorf("unknown device %q", dev)
	}
	return cfg, nil
}

// pairOutcome is one evaluation-cycle run in sweep mode.
type pairOutcome struct {
	baseline, target string
	firstErr         float64
	finalErr         float64
	iterations       int
	converged        bool
}

// runSweep executes the Figure-4 loop for every ordered (baseline, target)
// device pair, reps times each, on the campaign worker pool, and prints
// per-pair convergence distributions. Per-run seeds derive from
// (seed, run index) exactly as in a grid campaign, so the sweep is
// reproducible at any worker count.
func runSweep(ctx context.Context, stdout, stderr io.Writer, wl *iolang.Workload, devices []string, reps, iters int, tol float64, seed int64, workers int) error {
	var pairs [][2]string
	for _, b := range devices {
		for _, t := range devices {
			b, t = strings.TrimSpace(b), strings.TrimSpace(t)
			if b != t {
				pairs = append(pairs, [2]string{b, t})
			}
		}
	}
	if len(pairs) == 0 {
		return fmt.Errorf("sweep needs at least two distinct devices")
	}
	cfgs := make(map[string]pfs.Config, len(devices))
	for _, pair := range pairs {
		for _, d := range pair {
			if _, ok := cfgs[d]; !ok {
				cfg, err := mkCfg(d)
				if err != nil {
					return err
				}
				cfgs[d] = cfg
			}
		}
	}
	outcomes := make([]pairOutcome, len(pairs)*reps)
	errs := make([]error, len(outcomes))
	pr := campaign.PoolContext(ctx, len(outcomes), campaign.Options{Workers: workers, OnProgress: func(p campaign.Progress) {
		fmt.Fprintf(stderr, "\rcycle %d/%d elapsed %v eta %v   ", p.Done, p.Total,
			p.Elapsed.Round(10_000_000), p.ETA.Round(10_000_000))
		if p.Done == p.Total {
			fmt.Fprintln(stderr)
		}
	}}, func(i int) {
		pair := pairs[i/reps]
		res, err := core.RunCycle(core.CycleConfig{
			Seed:          campaign.RunSeed(seed, i),
			Baseline:      cfgs[pair[0]],
			Target:        cfgs[pair[1]],
			Source:        core.SyntheticSource{Workload: wl},
			MaxIterations: iters,
			Tolerance:     tol,
		})
		if err != nil {
			errs[i] = err
			return
		}
		outcomes[i] = pairOutcome{
			baseline: pair[0], target: pair[1],
			firstErr:   res.Iterations[0].RelError,
			finalErr:   res.Iterations[len(res.Iterations)-1].RelError,
			iterations: len(res.Iterations),
			converged:  res.Converged,
		}
	})
	if pr.Err != nil {
		return fmt.Errorf("sweep interrupted after %d/%d cycles", pr.Completed, len(outcomes))
	}
	for _, p := range pr.Panicked {
		return fmt.Errorf("cycle %d panicked: %v", p.Index, p.Value)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "baseline\ttarget\tfirst err (mean)\tfinal err (mean)\titerations (mean)\tconverged\n")
	for pi, pair := range pairs {
		var first, final, its []float64
		conv := 0
		for r := 0; r < reps; r++ {
			o := outcomes[pi*reps+r]
			first = append(first, o.firstErr)
			final = append(final, o.finalErr)
			its = append(its, float64(o.iterations))
			if o.converged {
				conv++
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.1f\t%d/%d\n",
			pair[0], pair[1], stats.Mean(first), stats.Mean(final), stats.Mean(its), conv, reps)
	}
	return tw.Flush()
}
