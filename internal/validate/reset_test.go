package validate

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"

	"pioeval/internal/campaign"
	"pioeval/internal/des"
	"pioeval/internal/faults"
	"pioeval/internal/iolang"
	"pioeval/internal/pfs"
	"pioeval/internal/reduce"
	"pioeval/internal/stack"
	"pioeval/internal/storage"
)

// resetFaults is the fault schedule of the faulted runs: a crash with
// recovery, a slow OST, transient errors, degraded links and an MDS
// outage that outlasts most programs.
const resetFaults = "ostcrash:1@1ms; ostrecover:1@15ms; slowdown:2x3@0s; transient:0.02@0s; linkdegrade:2@2ms; mdsdown@30ms; mdsup@60ms"

// runOnCluster runs body, as a program of c's cluster shape, on st's
// engine and file system through pr (st.Provider, or nil for bare direct
// targets) with every invariant checker armed. It renders everything the
// run reports: the interpreter's report and error, the invariant verdict
// and evidence, the file system's server, client and fault statistics,
// and the tier's and stage's statistics.
func runOnCluster(t *testing.T, st *stack.Stack, pr *storage.Provider, c Case, body []GStmt) string {
	t.Helper()
	c.Body = body
	w, err := iolang.Parse(c.Source())
	if err != nil {
		t.Fatalf("program does not parse: %v\n%s", err, c.Source())
	}
	e, fs := st.E, st.FS
	inv, col := Arm(e, fs, pr)
	rep, rerr := iolang.RunOn(e, fs, w, col, pr)
	var b strings.Builder
	fmt.Fprintf(&b, "report=%+v err=%v dispatched=%d\n", rep, rerr, e.Dispatches())
	fmt.Fprintf(&b, "violations=%v evidence=%+v\n", inv.Finish(), inv.Stats())
	fmt.Fprintf(&b, "mds=%+v\nosts=%+v\nclients=%+v\n", fs.MDSStats(), fs.OSTStats(), fs.ClientStatsTotal())
	fmt.Fprintf(&b, "faults=%#v\n", fs.FaultLog())
	if pr != nil {
		for _, bb := range pr.Buffers() {
			fmt.Fprintf(&b, "bb %+v\n", bb.Stats())
		}
		for _, l := range pr.Locals() {
			fmt.Fprintf(&b, "local %+v\n", l.Stats())
		}
	}
	if st.Stage != nil {
		fmt.Fprintf(&b, "stage %+v\n", st.Stage.StageStats())
	}
	fmt.Fprintf(&b, "paths=%v\n", namespace(e, fs))
	return b.String()
}

// newStack builds the stack of c's cluster shape with tier and the
// compress stage (none when ""), under c's fault schedule if it has one.
func newStack(t *testing.T, c Case, tier, compress string) *stack.Stack {
	t.Helper()
	st, err := stack.New(stack.Config{
		Cluster: campaign.ClusterConfig(c.Point), Seed: c.Seed,
		Tier: tier, Compress: compress, Faults: c.Point.Faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
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
// Each program runs once on a new stack, and once on a stack that first
// ran a different program, faulted and with its own invariant checkers
// armed, and was then reset with stack.Stack.Reset — the path campaign
// reuses stacks through. The two runs must report byte-identical results.
func TestResetDifferential(t *testing.T) {
	tiers := []string{storage.TierDirect, storage.TierBB, storage.TierNodeLocal}
	stages := append([]string{""}, reduce.Names()...)
	camp, err := faults.ParseCampaign(resetFaults)
	if err != nil {
		t.Fatal(err)
	}
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
				name := fmt.Sprintf("case %d tier=%s compress=%q faulted=%v", i, tier, compress, faulted)

				fresh := newStack(t, c, tier, compress)
				want := runOnCluster(t, fresh, fresh.Provider, c, c.Body)
				if !strings.Contains(want, " Retries:0 ") {
					retried++
				}

				// The earlier run is faulted either way: a fault-free stack
				// gets the schedule by hand, on top of what Reset remounts.
				oc := c
				oc.Seed = other.Seed
				st := newStack(t, oc, tier, compress)
				if !faulted {
					if _, err := faults.Run(st.E, st.FS, camp); err != nil {
						t.Fatal(err)
					}
				}
				runOnCluster(t, st, st.Provider, c, other.Body)
				st.Reset(c.Seed)
				if got := runOnCluster(t, st, st.Provider, c, c.Body); got != want {
					t.Errorf("%s: a reset stack reports differently from a new one:\n reset %s\n new   %s\nprogram:\n%s", name, got, want, c.Source())
				}
			}
		}
	}
	if retried == 0 {
		t.Error("no program hit the fault schedule: the faulted runs test nothing")
	}
}

// TestNilProviderMatchesDirect runs generated programs twice, each on a
// new stack without faults or stages: once with no provider, every rank
// on a bare storage.Direct target, and once through the stack's
// direct-tier provider. Reports, invariant verdicts and evidence, and the
// file system's server and client counters must be byte-identical, so
// an entry point may always mint its targets from a provider.
func TestNilProviderMatchesDirect(t *testing.T) {
	for i := 1; i <= 200; i++ {
		c := GenCase(campaign.RunSeed(3030, i))
		bare := newStack(t, c, storage.TierDirect, "")
		want := runOnCluster(t, bare, nil, c, c.Body)
		direct := newStack(t, c, storage.TierDirect, "")
		if got := runOnCluster(t, direct, direct.Provider, c, c.Body); got != want {
			t.Errorf("case %d: a direct provider reports differently from none:\n direct %s\n none   %s\nprogram:\n%s", i, got, want, c.Source())
		}
	}
}

// targetLog is a pass-through stage that records the target each node's
// ranks were given: on the direct tier, the node's PFS client.
type targetLog map[string]storage.Target

func (targetLog) Name() string          { return "targetlog" }
func (targetLog) Flush(*des.Proc) error { return nil }
func (l targetLog) Wrap(node string, t storage.Target) storage.Target {
	l[node] = t
	return t
}

// TestRevivedRanksMatchFresh runs generated programs on the direct tier
// twice: once on a new stack, and once on a stack that first ran a
// program with a different rank count and was then reset, so the second
// job revives the clients and fabric nodes the first one retired
// (pfs.FS.NewClient) for the ranks both have, and makes new ones for the
// rest. Both runs go through a pass-through stage that records each
// node's target when it wraps it. They must report byte-identical
// results. Every rank the two jobs share must have been given the target
// the first job had, which is the client the reset revived, without a
// new wrap; only the second job's other ranks are wrapped.
func TestRevivedRanksMatchFresh(t *testing.T) {
	revived := 0
	for i := 1; i <= 200; i++ {
		c := GenCase(campaign.RunSeed(5150, i))
		other := GenCase(campaign.RunSeed(5151, i))
		for j := int64(1); other.Point.Ranks == c.Point.Ranks; j++ {
			other = GenCase(campaign.RunSeed(5151+j, i))
		}
		fresh := newStack(t, c, storage.TierDirect, "")
		fresh.Provider.Push(targetLog{})
		want := runOnCluster(t, fresh, fresh.Provider, c, c.Body)

		oc := c
		oc.Seed, oc.Point.Ranks = other.Seed, other.Point.Ranks
		st := newStack(t, oc, storage.TierDirect, "")
		wrapped := targetLog{}
		st.Provider.Push(wrapped)
		runOnCluster(t, st, st.Provider, oc, other.Body)
		before := maps.Clone(wrapped)
		clear(wrapped)
		st.Reset(c.Seed)
		if got := runOnCluster(t, st, st.Provider, c, c.Body); got != want {
			t.Errorf("case %d (%d ranks after %d): a reset stack reports differently from a new one:\n reset %s\n new   %s\nprogram:\n%s", i, c.Point.Ranks, other.Point.Ranks, got, want, c.Source())
		}
		shared := min(c.Point.Ranks, other.Point.Ranks)
		if len(wrapped) != c.Point.Ranks-shared {
			t.Fatalf("case %d: %d targets wrapped after the reset, want %d", i, len(wrapped), c.Point.Ranks-shared)
		}
		for node := range wrapped {
			if _, ok := before[node]; ok {
				t.Errorf("case %d: node %s got a new target, not the one the reset kept", i, node)
			}
		}
		revived += shared
	}
	if revived == 0 {
		t.Error("no rank was revived: the reset runs test nothing")
	}
}
