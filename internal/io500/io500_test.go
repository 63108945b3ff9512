package io500

import (
	"bytes"
	"fmt"
	"testing"

	"pioeval/internal/cli"
	"pioeval/internal/des"
	"pioeval/internal/leakcheck"
	"pioeval/internal/pfs"
	"pioeval/internal/stack"
	"pioeval/internal/storage"
	"pioeval/internal/workload"
)

// tinyConfig is a suite configuration small enough for unit tests.
func tinyConfig() Config {
	return Config{
		Ranks: 2, Device: "hdd", Seed: 42, Workers: 1,
		EasyBlock: 1 << 20, EasyXfer: 256 << 10,
		HardXfer: 47008, HardOps: 4,
		EasyFiles: 8, HardFiles: 4,
	}
}

// standaloneCluster replicates exactly how cmd/iorbench and
// cmd/mdtestbench build their cluster: cli.ClusterFlags at default flag
// values, the given device and seed.
func standaloneCluster(t *testing.T, device string, seed int64) pfs.Config {
	t.Helper()
	cf := cli.ClusterFlags{
		OSS: 4, OSTsPerOSS: 2, Device: device, MDSThreads: 8,
		IONodes: 0, StripeCnt: 4, StripeSize: "1MB", Seed: seed,
	}
	cfg, err := cf.Config()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestIorEasyMatchesStandaloneIorbench pins the cross-command equivalence
// the suite promises: the ior-easy phase pair must reproduce a standalone
// cmd/iorbench run at the same configuration bit-for-bit — same simulated
// phase durations, same byte counts, and the phase value derived from
// them by the suite's own GiB/s formula.
func TestIorEasyMatchesStandaloneIorbench(t *testing.T) {
	cfg := tinyConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Standalone side, constructed exactly as cmd/iorbench main does.
	e := des.NewEngine(cfg.Seed)
	h := workload.NewHarness(e, pfs.New(e, standaloneCluster(t, cfg.Device, cfg.Seed)), cfg.Ranks, "cn", nil)
	rep := workload.RunIOR(h, workload.IORConfig{
		Ranks: cfg.Ranks, BlockSize: cfg.EasyBlock, TransferSize: cfg.EasyXfer,
		Segments: 1, SharedFile: false, Pattern: workload.Sequential,
		ReadBack: true, Collective: false,
	})

	w := res.Phase(IorEasyWrite)
	r := res.Phase(IorEasyRead)
	if w.Bytes != rep.TotalBytes || r.Bytes != rep.TotalBytes {
		t.Fatalf("byte mismatch: suite write=%d read=%d standalone=%d", w.Bytes, r.Bytes, rep.TotalBytes)
	}
	if w.Seconds != rep.WriteTime.Seconds() {
		t.Fatalf("ior-easy-write time diverges: suite %.9fs standalone %.9fs", w.Seconds, rep.WriteTime.Seconds())
	}
	if r.Seconds != rep.ReadTime.Seconds() {
		t.Fatalf("ior-easy-read time diverges: suite %.9fs standalone %.9fs", r.Seconds, rep.ReadTime.Seconds())
	}
	if want := gibPerS(rep.TotalBytes, rep.WriteTime); w.Value != want {
		t.Fatalf("ior-easy-write value %.9f, want %.9f", w.Value, want)
	}
	if want := gibPerS(rep.TotalBytes, rep.ReadTime); r.Value != want {
		t.Fatalf("ior-easy-read value %.9f, want %.9f", r.Value, want)
	}
}

// TestMdtestEasyMatchesStandaloneMdtestbench pins the metadata side of
// the equivalence layer: the mdtest-easy phases must reproduce a
// standalone cmd/mdtestbench run (default create,stat,delete phase set)
// at the same configuration.
func TestMdtestEasyMatchesStandaloneMdtestbench(t *testing.T) {
	cfg := tinyConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Standalone side, constructed exactly as cmd/mdtestbench main does.
	e := des.NewEngine(cfg.Seed)
	h := workload.NewHarness(e, pfs.New(e, standaloneCluster(t, cfg.Device, cfg.Seed)), cfg.Ranks, "cn", nil)
	phases, err := workload.ParseMDPhases("")
	if err != nil {
		t.Fatal(err)
	}
	rep := workload.RunMDTest(h, workload.MDTestConfig{
		Ranks: cfg.Ranks, FilesPerRank: cfg.EasyFiles, Phases: phases,
	})

	checks := []struct {
		phase string
		time  des.Time
	}{
		{MdtestEasyWrite, rep.CreateTime},
		{MdtestEasyStat, rep.StatTime},
		{MdtestEasyDelete, rep.RemoveTime},
	}
	for _, c := range checks {
		p := res.Phase(c.phase)
		if p.Seconds != c.time.Seconds() {
			t.Fatalf("%s time diverges: suite %.9fs standalone %.9fs", c.phase, p.Seconds, c.time.Seconds())
		}
		if p.Ops != int64(rep.TotalFiles) {
			t.Fatalf("%s ops %d, want %d", c.phase, p.Ops, rep.TotalFiles)
		}
		if want := kiops(int64(rep.TotalFiles), c.time); p.Value != want {
			t.Fatalf("%s value %.9f, want %.9f", c.phase, p.Value, want)
		}
	}
}

// TestSuiteDeterministicAcrossWorkers: the full suite must render — text
// and JSON — byte-identically at any worker count.
func TestSuiteDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		cfg := tinyConfig()
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := res.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	base := render(1)
	for _, w := range []int{2, 5} {
		if got := render(w); got != base {
			t.Fatalf("suite output differs between workers=1 and workers=%d", w)
		}
	}
}

// render is res as the io500 command prints it, text then JSON.
func render(t *testing.T, res *Result) string {
	t.Helper()
	var b bytes.Buffer
	if err := res.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSharedStacksMatchFresh: Run at one worker runs its five steps on
// one stack, reset between steps (stack.Lender); it must render — text
// and JSON — byte-identically to the suite with every step on a new
// stack of its own, on every tier, uncompressed and compressed, with the
// invariant checkers armed and not.
func TestSharedStacksMatchFresh(t *testing.T) {
	for _, tier := range []string{storage.TierDirect, storage.TierBB, storage.TierNodeLocal} {
		for _, compress := range []string{"", "lz"} {
			for _, check := range []bool{false, true} {
				cfg := tinyConfig()
				cfg.Tier, cfg.Compress, cfg.Check = tier, compress, check
				name := fmt.Sprintf("tier=%s compress=%q check=%v", tier, compress, check)
				shared, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				cfg = cfg.withDefaults()
				outs := make([]stepOut, len(steps))
				for i := range steps {
					outs[i] = runStep(cfg, i, stack.NewLender[Config](1))
				}
				fresh, err := assemble(cfg, outs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got, want := render(t, shared), render(t, fresh); got != want {
					t.Errorf("%s: steps on a shared stack render differently from steps on new ones:\nshared:\n%s\nnew:\n%s", name, got, want)
				}
				if check && len(shared.Violations) > 0 {
					t.Errorf("%s: violations %v", name, shared.Violations)
				}
			}
		}
	}
}

// TestRunLeavesNoGoroutine: no drain worker or rank proc of any step
// outlives Run, whose lender closes the engines of the stacks it kept,
// ending the coroutines their kept procs park between steps; on the
// burst-buffer tier with compression, at one worker and at two.
func TestRunLeavesNoGoroutine(t *testing.T) {
	leakcheck.Check(t)
	for _, workers := range []int{1, 2} {
		cfg := tinyConfig()
		cfg.Tier, cfg.Compress, cfg.Workers = storage.TierBB, "lz", workers
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSuiteStablePerSeed: same seed twice → identical result; a different
// seed still yields a complete, scored suite.
func TestSuiteStablePerSeed(t *testing.T) {
	run := func(seed int64) *Result {
		cfg := tinyConfig()
		cfg.Seed = seed
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(7), run(7)
	var ba, bb bytes.Buffer
	if err := a.WriteJSON(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bb); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Fatal("same-seed suite runs diverge")
	}
	if c := run(8); c.Score <= 0 {
		t.Fatalf("seed 8 suite score %.6f, want > 0", c.Score)
	}
}

// TestSuiteAllTiersValidate runs the suite over every storage tier with
// the invariant checkers armed: all phases must complete, the score must
// be positive, and no invariant may trip.
func TestSuiteAllTiersValidate(t *testing.T) {
	for _, tier := range []string{"direct", "bb", "nodelocal"} {
		t.Run(tier, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Tier = tier
			cfg.Check = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if len(res.Phases) != len(PhaseOrder) {
				t.Fatalf("got %d phases, want %d", len(res.Phases), len(PhaseOrder))
			}
			for i, p := range res.Phases {
				if p.Name != PhaseOrder[i] {
					t.Fatalf("phase %d is %s, want %s", i, p.Name, PhaseOrder[i])
				}
				if p.Value <= 0 {
					t.Errorf("phase %s value %.6f, want > 0", p.Name, p.Value)
				}
			}
			if res.Score <= 0 {
				t.Errorf("score %.6f, want > 0", res.Score)
			}
		})
	}
}

// TestCheckDoesNotChangeResults: arming the invariant checkers is pure
// observation — phase values and scores must match the unchecked run.
func TestCheckDoesNotChangeResults(t *testing.T) {
	plain := tinyConfig()
	checked := tinyConfig()
	checked.Check = true
	a, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(checked)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Phases {
		if a.Phases[i] != b.Phases[i] {
			t.Fatalf("phase %s differs with checking armed: %+v vs %+v",
				a.Phases[i].Name, a.Phases[i], b.Phases[i])
		}
	}
	if a.Score != b.Score {
		t.Fatalf("score differs with checking armed: %.9f vs %.9f", a.Score, b.Score)
	}
}

// TestScoreGeometry pins the scoring rule: uniform values yield that
// value as every score, and a single dead phase zeroes its class and the
// total.
func TestScoreGeometry(t *testing.T) {
	vals := map[string]float64{}
	for _, n := range PhaseOrder {
		vals[n] = 2.0
	}
	bw, md, total := Score(vals)
	if bw != 2.0 || md != 2.0 || total != 2.0 {
		t.Fatalf("uniform 2.0 scores = (%.6f, %.6f, %.6f), want all 2.0", bw, md, total)
	}
	vals[Find] = 0
	bw, md, total = Score(vals)
	if bw != 2.0 {
		t.Fatalf("bw score %.6f after zeroing a md phase, want 2.0", bw)
	}
	if md != 0 || total != 0 {
		t.Fatalf("md/total = (%.6f, %.6f) with a dead phase, want zeros", md, total)
	}
}

// TestPhaseKindSplit: four bandwidth phases, eight metadata phases.
func TestPhaseKindSplit(t *testing.T) {
	var nbw, nmd int
	for _, n := range PhaseOrder {
		switch PhaseKind(n) {
		case KindBW:
			nbw++
		case KindMD:
			nmd++
		}
	}
	if nbw != 4 || nmd != 8 {
		t.Fatalf("phase split bw=%d md=%d, want 4 and 8", nbw, nmd)
	}
}

// TestFindCountsHardFiles: the find phase must locate exactly the
// mdtest-hard-sized files on every tier, which holds only while each
// tier's Readdir yields full paths that stat can resolve.
func TestFindCountsHardFiles(t *testing.T) {
	for _, tier := range []string{storage.TierDirect, storage.TierBB, storage.TierNodeLocal} {
		cfg := tinyConfig()
		cfg.Tier = tier
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f := res.Phase(Find)
		wantFound := int64(cfg.Ranks * cfg.HardFiles)
		if f.Found != wantFound {
			t.Fatalf("%s: find matched %d files, want %d", tier, f.Found, wantFound)
		}
		// Ops: per rank, 2 readdirs + one stat per entry.
		wantOps := int64(cfg.Ranks * (2 + cfg.EasyFiles + cfg.HardFiles))
		if f.Ops != wantOps {
			t.Fatalf("%s: find performed %d ops, want %d", tier, f.Ops, wantOps)
		}
	}
}

// TestConfigValidate covers rejection paths.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Device: "tape"},
		{Tier: "cloud"},
		{EasyBlock: 1 << 10, EasyXfer: 1 << 20},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v validated, want error", cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

// TestRunAllocBudget holds the metadata path's host cost: a small
// burst-buffer, lz-compressed suite must stay within its allocation
// budget, runAllocBudget, set per proc form. Once the five steps shared
// one stack, reset between steps with its provider, tier targets, burst
// buffer and stage wrappers kept, the suite allocated 1,060 with
// coroutine procs (go1.24) and 899 with channel procs; before that each
// step built its own stack and the suite allocated 1,756 (1,596 with
// channel procs), and before that 1,778 while the drain handles were not
// carved from a slab, 2,862 while each open still allocated its stage
// and tier handles and each drain open its PFS handle, and 5,419 before
// each file's name was built once per rank and a closed descriptor's
// state was reused.
func TestRunAllocBudget(t *testing.T) {
	const budget = runAllocBudget
	cfg := tinyConfig()
	cfg.Tier, cfg.Compress = "bb", "lz"
	cfg.EasyFiles, cfg.HardFiles = 64, 32
	var err error
	n := testing.AllocsPerRun(1, func() { _, err = Run(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v allocations", n)
	if n > budget {
		t.Errorf("%v allocations, budget %d", n, budget)
	}
}
