package validate

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"pioeval/internal/campaign"
	"pioeval/internal/des"
	"pioeval/internal/faults"
	"pioeval/internal/iolang"
	"pioeval/internal/pfs"
	"pioeval/internal/reduce"
	"pioeval/internal/storage"
	"pioeval/internal/trace"
)

// resetFaults is the fault schedule of the faulted runs: a crash with
// recovery, a slow OST, transient errors, degraded links and an MDS
// outage that outlasts most programs.
const resetFaults = "ostcrash:1@1ms; ostrecover:1@15ms; slowdown:2x3@0s; transient:0.02@0s; linkdegrade:2@2ms; mdsdown@30ms; mdsup@60ms"

// runOnCluster runs body, as a program of c's cluster shape, on e and fs
// through a provider of tier with the compress stage (none when ""),
// under resetFaults when faulted, with every invariant checker attached.
// It renders everything the run reports: the interpreter's report and
// error, the invariant verdict and evidence, the file system's server,
// client and fault statistics, and the tier's and stage's statistics.
func runOnCluster(t *testing.T, e *des.Engine, fs *pfs.FS, c Case, body []GStmt, tier, compress string, faulted bool) string {
	t.Helper()
	c.Body = body
	w, err := iolang.Parse(c.Source())
	if err != nil {
		t.Fatalf("program does not parse: %v\n%s", err, c.Source())
	}
	if faulted {
		camp, err := faults.ParseCampaign(resetFaults)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := faults.Run(e, fs, camp); err != nil {
			t.Fatal(err)
		}
	}
	pr, err := storage.NewProvider(e, fs, tier, storage.ProviderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var stage *reduce.Stage
	if compress != "" {
		if stage, err = reduce.New(compress); err != nil {
			t.Fatal(err)
		}
		pr.Push(stage)
	}
	col := trace.NewCollector()
	col.SetLimit(1)
	inv := Attach(e, fs, col)
	inv.ObserveTier(pr)
	rep, rerr := iolang.RunOn(e, fs, w, col, pr)
	var b strings.Builder
	fmt.Fprintf(&b, "report=%+v err=%v dispatched=%d\n", rep, rerr, e.Dispatches())
	fmt.Fprintf(&b, "violations=%v evidence=%+v\n", inv.Finish(), inv.Stats())
	fmt.Fprintf(&b, "mds=%+v\nosts=%+v\nclients=%+v\n", fs.MDSStats(), fs.OSTStats(), fs.ClientStatsTotal())
	fmt.Fprintf(&b, "faults=%#v\n", fs.FaultLog())
	for _, bb := range pr.Buffers() {
		fmt.Fprintf(&b, "bb %+v\n", bb.Stats())
	}
	for _, l := range pr.Locals() {
		fmt.Fprintf(&b, "local %+v\n", l.Stats())
	}
	if stage != nil {
		fmt.Fprintf(&b, "stage %+v\n", stage.StageStats())
	}
	fmt.Fprintf(&b, "paths=%v\n", namespace(e, fs))
	return b.String()
}

// namespace lists every path of fs's namespace, walked from the root with
// Readdir on a client and proc of its own once the run has ended. A path
// that Readdir refuses as no directory is a file; any other error is
// listed in its place.
func namespace(e *des.Engine, fs *pfs.FS) []string {
	c := fs.NewClient("walker")
	var paths []string
	e.Spawn("walker", func(p *des.Proc) {
		var walk func(dir string)
		walk = func(dir string) {
			names, err := c.Readdir(p, dir)
			if err != nil {
				if !errors.Is(err, pfs.ErrNotDir) {
					paths = append(paths, err.Error())
				}
				return
			}
			for _, name := range names {
				paths = append(paths, name)
				walk(name)
			}
		}
		walk("/")
	})
	e.Run(des.MaxTime)
	return paths
}

// TestResetDifferential runs generated programs under every storage tier
// and every compression stage, each with and without a fault schedule.
// Each program runs once on a new engine and file system, and once on an
// engine and file system that first ran a different program, faulted and
// with its own invariant checkers attached, and were then reset. The two
// runs must report byte-identical results.
func TestResetDifferential(t *testing.T) {
	tiers := []string{storage.TierDirect, storage.TierBB, storage.TierNodeLocal}
	stages := append([]string{""}, reduce.Names()...)
	i, retried := 0, 0
	for _, tier := range tiers {
		for _, compress := range stages {
			for _, faulted := range []bool{false, true} {
				i++
				c := GenCase(campaign.RunSeed(2024, i))
				other := GenCase(campaign.RunSeed(4202, i))
				if faulted {
					c.Point.Faults = resetFaults
				}
				cfg := campaign.ClusterConfig(c.Point)
				name := fmt.Sprintf("case %d tier=%s compress=%q faulted=%v", i, tier, compress, faulted)

				fresh := des.NewEngine(c.Seed)
				want := runOnCluster(t, fresh, pfs.New(fresh, cfg), c, c.Body, tier, compress, faulted)
				if !strings.Contains(want, " Retries:0 ") {
					retried++
				}

				e := des.NewEngine(other.Seed)
				fs := pfs.New(e, cfg)
				runOnCluster(t, e, fs, c, other.Body, tier, compress, true)
				e.Reset(c.Seed)
				fs.Reset()
				if got := runOnCluster(t, e, fs, c, c.Body, tier, compress, faulted); got != want {
					t.Errorf("%s: a reset cluster reports differently from a new one:\n reset %s\n new   %s\nprogram:\n%s", name, got, want, c.Source())
				}
			}
		}
	}
	if retried == 0 {
		t.Error("no program hit the fault schedule: the faulted runs test nothing")
	}
}
