package workload

import (
	"reflect"
	"strings"
	"testing"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/pfs"
	"pioeval/internal/storage"
	"pioeval/internal/trace"
)

func ssdFS(e *des.Engine) *pfs.FS {
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	cfg.OSTDevice = func() blockdev.Model { return blockdev.DefaultSSD() }
	return pfs.New(e, cfg)
}

// readdir lists the paths in each of dirs on fs once a run has ended,
// with Readdir on a client and proc of its own.
func readdir(t *testing.T, e *des.Engine, fs *pfs.FS, dirs ...string) [][]string {
	t.Helper()
	c := fs.NewClient("lister")
	out := make([][]string, len(dirs))
	e.Spawn("lister", func(p *des.Proc) {
		for i, dir := range dirs {
			var err error
			if out[i], err = c.Readdir(p, dir); err != nil {
				t.Errorf("readdir %s: %v", dir, err)
			}
		}
	})
	e.Run(des.MaxTime)
	return out
}

func hddFS(e *des.Engine) *pfs.FS {
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	return pfs.New(e, cfg)
}

func TestIORSequentialWrite(t *testing.T) {
	e := des.NewEngine(41)
	fs := ssdFS(e)
	h := NewHarness(e, fs, 4, "cn", nil)
	rep := RunIOR(h, IORConfig{Ranks: 4, BlockSize: 8 << 20, TransferSize: 1 << 20, SharedFile: true, ReadBack: true})
	if rep.TotalBytes != 32<<20 {
		t.Fatalf("total bytes = %d", rep.TotalBytes)
	}
	if rep.WriteMBps <= 0 || rep.ReadMBps <= 0 {
		t.Fatalf("bandwidths = w%.1f r%.1f", rep.WriteMBps, rep.ReadMBps)
	}
	_, w := fs.TotalBytes()
	if w != 32<<20 {
		t.Fatalf("FS wrote %d, want %d", w, 32<<20)
	}
}

func TestIORFilePerProcessVsShared(t *testing.T) {
	run := func(shared bool) IORReport {
		e := des.NewEngine(42)
		h := NewHarness(e, ssdFS(e), 4, "cn", nil)
		return RunIOR(h, IORConfig{Ranks: 4, BlockSize: 4 << 20, SharedFile: shared})
	}
	fpp, sh := run(false), run(true)
	if fpp.TotalBytes != sh.TotalBytes {
		t.Fatal("byte volumes differ")
	}
	// Both must complete; bandwidths positive.
	if fpp.WriteMBps <= 0 || sh.WriteMBps <= 0 {
		t.Fatal("bandwidth")
	}
}

func TestIORRandomSlowerThanSequentialOnHDD(t *testing.T) {
	run := func(pat Pattern) IORReport {
		e := des.NewEngine(43)
		h := NewHarness(e, hddFS(e), 4, "cn", nil)
		// Stripe count 1 gives each rank's file a dedicated OST, so the
		// device-level pattern reflects the application pattern.
		return RunIOR(h, IORConfig{
			Ranks: 4, BlockSize: 8 << 20, TransferSize: 64 << 10,
			Pattern: pat, SharedFile: false, ReadBack: true,
			StripeCount: 1, StripeSize: 1 << 20,
		})
	}
	seq, rnd := run(Sequential), run(Random)
	if rnd.ReadMBps >= seq.ReadMBps {
		t.Fatalf("random read %.1f MB/s should be slower than sequential %.1f MB/s",
			rnd.ReadMBps, seq.ReadMBps)
	}
}

func TestIORCollectiveOnStridedSmall(t *testing.T) {
	run := func(collective bool) IORReport {
		e := des.NewEngine(44)
		h := NewHarness(e, hddFS(e), 8, "cn", nil)
		return RunIOR(h, IORConfig{
			Ranks: 8, BlockSize: 1 << 20, TransferSize: 16 << 10,
			SharedFile: true, Pattern: Strided, Collective: collective,
		})
	}
	ind, coll := run(false), run(true)
	if coll.WriteMBps <= ind.WriteMBps {
		t.Fatalf("collective %.1f MB/s should beat independent %.1f MB/s on strided small transfers",
			coll.WriteMBps, ind.WriteMBps)
	}
}

func TestIORPatternString(t *testing.T) {
	if Sequential.String() != "sequential" || Strided.String() != "strided" || Random.String() != "random" {
		t.Error("pattern names")
	}
}

func TestMDTestPhases(t *testing.T) {
	e := des.NewEngine(45)
	fs := ssdFS(e)
	h := NewHarness(e, fs, 4, "cn", nil)
	rep := RunMDTest(h, MDTestConfig{Ranks: 4, FilesPerRank: 32})
	if rep.TotalFiles != 128 {
		t.Fatalf("total files = %d", rep.TotalFiles)
	}
	if rep.CreatesPerS <= 0 || rep.StatsPerS <= 0 || rep.RemovesPerS <= 0 {
		t.Fatalf("rates = %+v", rep)
	}
	// Stats are cheaper than creates at the MDS in our model? Both cost
	// one op; creates also pay namespace insert — same service time, so
	// rates should be within an order of magnitude.
	if rep.StatsPerS < rep.CreatesPerS/10 {
		t.Errorf("stat rate %.0f unexpectedly below create rate %.0f", rep.StatsPerS, rep.CreatesPerS)
	}
	// Namespace must be clean afterwards.
	ls := readdir(t, e, fs, "/", "/mdtest")
	if len(ls[0]) != 1 || ls[0][0] != "/mdtest" || len(ls[1]) != 0 {
		t.Errorf("leftover namespace entries: / holds %v, /mdtest holds %v", ls[0], ls[1])
	}
	st := fs.MDSStats()
	if st.Ops["create"] < 128 || st.Ops["unlink"] < 128 {
		t.Errorf("MDS ops = %v", st.Ops)
	}
}

func TestMDTestScalesWithMDSThreads(t *testing.T) {
	run := func(threads int) MDTestReport {
		e := des.NewEngine(46)
		cfg := pfs.DefaultConfig()
		cfg.NumIONodes = 0
		cfg.OSTDevice = func() blockdev.Model { return blockdev.DefaultSSD() }
		cfg.MDSThreads = threads
		fs := pfs.New(e, cfg)
		h := NewHarness(e, fs, 8, "cn", nil)
		return RunMDTest(h, MDTestConfig{Ranks: 8, FilesPerRank: 32})
	}
	one, eight := run(1), run(8)
	if eight.CreatesPerS <= one.CreatesPerS {
		t.Errorf("8-thread MDS creates %.0f/s should beat 1-thread %.0f/s",
			eight.CreatesPerS, one.CreatesPerS)
	}
}

func TestCheckpointDirectVsBurstBuffer(t *testing.T) {
	// Figure-1 experiment shape at workload level: the same checkpoint on
	// the bb tier shortens the application-perceived checkpoint time.
	run := func(tier string) CheckpointReport {
		e := des.NewEngine(47)
		fs := hddFS(e)
		pr, err := storage.NewProvider(e, fs, tier, storage.ProviderConfig{})
		if err != nil {
			t.Fatal(err)
		}
		h := NewHarnessOn(e, fs, 4, "cn", nil, pr)
		return RunCheckpoint(h, CheckpointConfig{Ranks: 4, BytesPerRank: 8 << 20, Steps: 3, ComputeTime: 50 * des.Millisecond})
	}
	direct, buffered := run(storage.TierDirect), run(storage.TierBB)
	for _, rep := range []CheckpointReport{direct, buffered} {
		if rep.TotalBytes != 3*4*8<<20 {
			t.Fatalf("bytes = %d", rep.TotalBytes)
		}
		for i, d := range rep.StepIOTime {
			if d <= 0 {
				t.Fatalf("step %d time = %v", i, d)
			}
		}
		if rep.EffectiveMBps <= 0 || rep.IOFraction <= 0 || rep.IOFraction >= 1 || rep.IOErrors != 0 {
			t.Fatalf("report = %+v", rep)
		}
	}
	if buffered.EffectiveMBps < 2*direct.EffectiveMBps {
		t.Errorf("bb tier perceived %.1f MB/s vs direct %.1f MB/s; expected at least 2x",
			buffered.EffectiveMBps, direct.EffectiveMBps)
	}
}

func TestDLRandomReadsSlower(t *testing.T) {
	// The C2 shape: shuffled small reads achieve lower bandwidth than
	// unshuffled (sequential within files) epochs on HDD-backed storage.
	run := func(shuffle bool) DLReport {
		e := des.NewEngine(48)
		h := NewHarness(e, hddFS(e), 4, "cn", nil)
		return RunDL(h, DLConfig{
			Workers: 4, Samples: 512, SampleSize: 128 << 10,
			SamplesPerFile: 128, BatchSize: 32, Epochs: 1, Shuffle: shuffle,
		})
	}
	seq, shuf := run(false), run(true)
	if seq.TotalRead != shuf.TotalRead {
		t.Fatalf("read volumes differ: %d vs %d", seq.TotalRead, shuf.TotalRead)
	}
	if shuf.ReadMBps >= seq.ReadMBps {
		t.Fatalf("shuffled %.1f MB/s should be slower than in-order %.1f MB/s",
			shuf.ReadMBps, seq.ReadMBps)
	}
	if shuf.SamplesPerSec <= 0 {
		t.Error("samples/sec")
	}
}

func TestDLReadsAreReadDominated(t *testing.T) {
	e := des.NewEngine(49)
	fs := ssdFS(e)
	col := trace.NewCollector()
	h := NewHarness(e, fs, 2, "cn", col)
	RunDL(h, DLConfig{Workers: 2, Samples: 256, SamplesPerFile: 64, Epochs: 2, Shuffle: true})
	sum := trace.Summarize(trace.ByLayer(col.Records(), trace.LayerPOSIX))
	// 2 epochs of reads vs 1 generation write: read-dominated.
	if sum.BytesRead <= sum.BytesWritten {
		t.Fatalf("DL should be read-dominated: r%d w%d", sum.BytesRead, sum.BytesWritten)
	}
}

func TestWorkflowChainOrdering(t *testing.T) {
	e := des.NewEngine(51)
	fs := ssdFS(e)
	cfg := ChainWorkflow(5, 4, 1<<20)
	rep := RunWorkflow(e, fs, cfg, nil)
	if rep.TasksRun != 5 {
		t.Fatalf("tasks run = %d, want 5", rep.TasksRun)
	}
	// Stage outputs must all exist except none removed: 5 stages x 4 files.
	if found := len(readdir(t, e, fs, "/wf")[0]); found != 20 {
		t.Errorf("workflow outputs = %d, want 20", found)
	}
	if rep.MetaOpsPerMB <= 0 {
		t.Error("metadata intensity should be positive")
	}
}

func TestWorkflowDiamondParallelism(t *testing.T) {
	e := des.NewEngine(52)
	fs := ssdFS(e)
	rep := RunWorkflow(e, fs, DiamondWorkflow(4, 8<<20), nil)
	if rep.TasksRun != 6 {
		t.Fatalf("tasks = %d, want 6", rep.TasksRun)
	}
	if rep.BytesRead == 0 || rep.BytesWrit == 0 {
		t.Fatal("no data moved")
	}
}

func TestWorkflowIsMetadataIntensiveVsBulkIO(t *testing.T) {
	// The C3 shape: per megabyte moved, workflows consume far more MDS
	// operations than a bulk checkpoint.
	eW := des.NewEngine(53)
	fsW := ssdFS(eW)
	wf := RunWorkflow(eW, fsW, ChainWorkflow(8, 8, 256<<10), nil)

	eC := des.NewEngine(54)
	fsC := ssdFS(eC)
	h := NewHarness(eC, fsC, 4, "cn", nil)
	before := fsC.MDSStats().TotalOps
	ck := RunCheckpoint(h, CheckpointConfig{Ranks: 4, BytesPerRank: 16 << 20, Steps: 2})
	ckMeta := fsC.MDSStats().TotalOps - before
	ckMetaPerMB := float64(ckMeta) / (float64(ck.TotalBytes) / 1e6)

	if wf.MetaOpsPerMB <= ckMetaPerMB*3 {
		t.Fatalf("workflow metadata intensity %.2f ops/MB should dwarf checkpoint %.2f ops/MB",
			wf.MetaOpsPerMB, ckMetaPerMB)
	}
}

func TestBTIOCollectiveAndIndependent(t *testing.T) {
	run := func(collective bool) BTIOReport {
		e := des.NewEngine(56)
		fs := ssdFS(e)
		h := NewHarness(e, fs, 4, "bt", nil)
		rep := RunBTIO(h, BTIOConfig{
			Ranks: 4, Dims: [3]int64{32, 16, 16}, Steps: 3, Collective: collective,
		})
		_, w := fs.TotalBytes()
		// All cell bytes must reach the OSTs (plus HDF metadata); the
		// collective path may round up slightly over coalesced holes.
		if w < rep.TotalBytes {
			t.Fatalf("OST bytes %d < payload %d", w, rep.TotalBytes)
		}
		return rep
	}
	coll := run(true)
	ind := run(false)
	want := int64(32*16*16) * 40 * 3
	if coll.TotalBytes != want || ind.TotalBytes != want {
		t.Fatalf("payload = %d/%d, want %d", coll.TotalBytes, ind.TotalBytes, want)
	}
	if coll.WriteMBps <= 0 || ind.WriteMBps <= 0 {
		t.Fatal("bandwidths")
	}
	for _, d := range coll.StepTime {
		if d <= 0 {
			t.Fatal("step time")
		}
	}
}

func TestBTIODefaults(t *testing.T) {
	cfg := BTIOConfig{}.withDefaults()
	if cfg.Ranks <= 0 || cfg.ElemSize != 40 || cfg.Dims[0] == 0 || cfg.Steps <= 0 {
		t.Errorf("defaults = %+v", cfg)
	}
	// Dim 0 clamps up to rank count.
	c2 := BTIOConfig{Ranks: 64, Dims: [3]int64{8, 8, 8}}.withDefaults()
	if c2.Dims[0] < 64 {
		t.Errorf("dim0 = %d", c2.Dims[0])
	}
}

func TestParseMDPhases(t *testing.T) {
	// Empty string selects the historical default set.
	def, err := ParseMDPhases("")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(def, ","), "create,stat,delete"; got != want {
		t.Fatalf("default phases = %s, want %s", got, want)
	}
	// Any selection comes back in canonical order regardless of input order.
	all, err := ParseMDPhases("delete,read,create,stat")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(all, ","), "create,stat,read,delete"; got != want {
		t.Fatalf("phases = %s, want %s", got, want)
	}
	for _, bad := range []string{"stat,delete", "create,create", "create,fsck"} {
		if _, err := ParseMDPhases(bad); err == nil {
			t.Errorf("ParseMDPhases(%q) accepted, want error", bad)
		}
	}
}

func TestMDTestSelectablePhases(t *testing.T) {
	run := func(phases string) MDTestReport {
		e := des.NewEngine(47)
		h := NewHarness(e, ssdFS(e), 4, "cn", nil)
		sel, err := ParseMDPhases(phases)
		if err != nil {
			t.Fatal(err)
		}
		return RunMDTest(h, MDTestConfig{
			Ranks: 4, FilesPerRank: 16, WriteBytes: 3901, Phases: sel,
		})
	}

	// All four phases: every rate positive, read back the written payload.
	full := run("create,stat,read,delete")
	for _, ph := range []string{MDPhaseCreate, MDPhaseStat, MDPhaseRead, MDPhaseDelete} {
		if full.PhaseRate(ph) <= 0 {
			t.Errorf("phase %s rate %.1f, want > 0", ph, full.PhaseRate(ph))
		}
		if full.PhaseTime(ph) <= 0 {
			t.Errorf("phase %s time %v, want > 0", ph, full.PhaseTime(ph))
		}
	}

	// Omitted phases report zero time and rate.
	partial := run("create,delete")
	for _, ph := range []string{MDPhaseStat, MDPhaseRead} {
		if partial.PhaseRate(ph) != 0 || partial.PhaseTime(ph) != 0 {
			t.Errorf("skipped phase %s reported time %v rate %.1f, want zeros",
				ph, partial.PhaseTime(ph), partial.PhaseRate(ph))
		}
	}

	// The read phase costs simulated time: adding it lengthens the
	// makespan of an otherwise identical run.
	withRead := run("create,read,delete")
	if withRead.Makespan <= partial.Makespan {
		t.Errorf("makespan with read %v should exceed without %v",
			withRead.Makespan, partial.Makespan)
	}

	// Rate definition check: ops/sec = total files / phase seconds.
	if got, want := full.PhaseRate(MDPhaseRead), float64(full.TotalFiles)/full.ReadTime.Seconds(); got != want {
		t.Errorf("read rate %.6f, want %.6f", got, want)
	}
}

func TestMDTestPhaseHelpersUnknownName(t *testing.T) {
	var rep MDTestReport
	if rep.PhaseRate("fsck") != 0 || rep.PhaseTime("fsck") != 0 {
		t.Error("unknown phase name should report zeros")
	}
}

// TestDLTraceDeterministic: each rank closes an epoch's descriptors at the
// epoch's end. Same-seed traced runs give identical trace-record
// sequences, so the closes cannot follow map iteration order.
func TestDLTraceDeterministic(t *testing.T) {
	run := func() []trace.Record {
		e := des.NewEngine(49)
		col := trace.NewCollector()
		h := NewHarness(e, ssdFS(e), 2, "cn", col)
		RunDL(h, DLConfig{Workers: 2, Samples: 256, SamplesPerFile: 32, Epochs: 2, Shuffle: true})
		return col.Records()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if again := run(); !reflect.DeepEqual(first, again) {
			t.Fatalf("same-seed DL runs traced differently (%d vs %d records)", len(first), len(again))
		}
	}
}
