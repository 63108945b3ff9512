package workload

import (
	"reflect"
	"testing"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/pfs"
	"pioeval/internal/storage"
)

// TestScaleFormEquivalence checks that the continuation-form checkpoint
// reproduces the goroutine-form checkpoint exactly on a fault-free run:
// same makespan, same per-step I/O times, same bytes on the OSTs. The two
// forms share every cost model and differ only in how ranks suspend, so
// any divergence is a porting bug.
func TestScaleFormEquivalence(t *testing.T) {
	run := func(continuation bool) (des.Time, []des.Time, int64) {
		if continuation {
			var fs *pfs.FS
			rep := RunShardedCheckpoint(ShardedConfig{
				Scale: ScaleConfig{
					Ranks: 8, BytesPerRank: 2 << 20, Steps: 3,
					ComputeTime: des.Millisecond, TransferSize: 1 << 20,
					NodePrefix: "ckpt",
				},
				Shards:      1,
				Seed:        1,
				AttachShard: func(_ int, _ *des.Engine, f *pfs.FS) { fs = f },
			})
			_, written := fs.TotalBytes()
			return rep.Makespan, rep.StepIOTime, written
		}
		e := des.NewEngine(1)
		fs := pfs.New(e, pfs.DefaultConfig())
		h := NewHarness(e, fs, 8, "ckpt", nil)
		rep := RunCheckpoint(h, CheckpointConfig{
			Ranks: 8, BytesPerRank: 2 << 20, Steps: 3,
			ComputeTime: des.Millisecond, TransferSize: 1 << 20,
		})
		_, written := fs.TotalBytes()
		return rep.Makespan, rep.StepIOTime, written
	}

	gm, gs, gb := run(false)
	cm, cs, cb := run(true)
	if gm != cm {
		t.Errorf("makespan: goroutine %v, continuation %v", gm, cm)
	}
	if !reflect.DeepEqual(gs, cs) {
		t.Errorf("step I/O times: goroutine %v, continuation %v", gs, cs)
	}
	if gb != cb {
		t.Errorf("bytes written: goroutine %d, continuation %d", gb, cb)
	}
	if gb != 8*(2<<20)*3 {
		t.Errorf("bytes written = %d, want %d", gb, 8*(2<<20)*3)
	}
}

// TestScaleCheckpointDeterminism checks that repeated one-shard
// continuation-form runs are bit-identical.
func TestScaleCheckpointDeterminism(t *testing.T) {
	run := func() ShardedReport {
		return RunShardedCheckpoint(ShardedConfig{
			Scale: ScaleConfig{
				Ranks: 16, BytesPerRank: 1 << 20, Steps: 2,
				TransferSize: 256 << 10, RanksPerNode: 4, StripeCount: 1,
			},
			Shards: 1,
			Seed:   7,
		})
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("non-deterministic scale run:\n%+v\n%+v", a, b)
	}
	if a.Windows != 0 || a.Workers != 1 {
		t.Errorf("one-shard run reports %d windows on %d workers, want 0 on 1", a.Windows, a.Workers)
	}
}

// TestSingleShardMatchesEngineCheckpoint pins the one-shard path to the
// results of the former single-engine scale entry point, recorded as
// constants before it was folded into RunShardedCheckpoint: makespan, step
// I/O times, engine dispatches and I/O errors. The second config crashes
// an OST mid-checkpoint under a fail-fast policy, so failed operations are
// pinned too.
func TestSingleShardMatchesEngineCheckpoint(t *testing.T) {
	failFast := pfs.DefaultConfig()
	failFast.Resilience = pfs.ResiliencePolicy{}
	cases := []struct {
		name     string
		cfg      ShardedConfig
		makespan des.Time
		steps    []des.Time
		stepErrs []uint64
		events   uint64
	}{
		{
			name: "shared-nodes",
			cfg: ShardedConfig{
				Scale: ScaleConfig{
					Ranks: 24, BytesPerRank: 3 << 20, Steps: 3,
					ComputeTime: 2 * des.Millisecond, TransferSize: 1 << 20,
					RanksPerNode: 4, NodePrefix: "cn",
				},
				Seed: 3,
			},
			makespan: 364914029,
			steps:    []des.Time{116412553, 121239488, 121239488},
			stepErrs: []uint64{0, 0, 0},
			events:   6386,
		},
		{
			name: "ost-crash",
			cfg: ShardedConfig{
				Scale: ScaleConfig{
					Ranks: 16, BytesPerRank: 2 << 20, Steps: 2,
					TransferSize: 512 << 10, StripeCount: 2,
				},
				FS:   failFast,
				Seed: 9,
				AttachShard: func(_ int, e *des.Engine, fs *pfs.FS) {
					e.After(3*des.Millisecond, func() { fs.CrashOST(1) })
				},
			},
			makespan: 142584271,
			steps:    []des.Time{70249210, 72323061},
			stepErrs: []uint64{8, 8},
			events:   3149,
		},
	}
	for _, tc := range cases {
		tc.cfg.Shards = 1
		rep := RunShardedCheckpoint(tc.cfg)
		if rep.Makespan != tc.makespan {
			t.Errorf("%s: makespan %d, want %d", tc.name, rep.Makespan, tc.makespan)
		}
		if !reflect.DeepEqual(rep.StepIOTime, tc.steps) {
			t.Errorf("%s: step I/O times %v, want %v", tc.name, rep.StepIOTime, tc.steps)
		}
		if !reflect.DeepEqual(rep.StepIOErrors, tc.stepErrs) {
			t.Errorf("%s: step I/O errors %v, want %v", tc.name, rep.StepIOErrors, tc.stepErrs)
		}
		var errs uint64
		for _, n := range tc.stepErrs {
			errs += n
		}
		if rep.IOErrors != errs {
			t.Errorf("%s: I/O errors %d, want %d", tc.name, rep.IOErrors, errs)
		}
		if rep.Events != tc.events {
			t.Errorf("%s: events %d, want %d", tc.name, rep.Events, tc.events)
		}
	}
}

// TestGoroutinePathDispatchPins pins the goroutine-form path — the one
// the campaign runner and the io500 suite take — to constants recorded
// before its data RPCs moved from one spawned goroutine proc each onto the
// continuation rpcCall: engine dispatches, makespan and the bytes that
// reached the OSTs. The first case is a small RunCheckpoint whose 4 MiB
// writes fan out over four stripes through I/O nodes; the second is one
// point of cmd/campaign's default grid (4 ranks, ssd, stripe count 4,
// 256 KiB random transfers into a shared file) built the way the campaign
// runner builds it. A change that alters the event count has to update
// the constants and say why.
func TestGoroutinePathDispatchPins(t *testing.T) {
	cases := []struct {
		name       string
		run        func(e *des.Engine, fs *pfs.FS) des.Time
		cfg        func() pfs.Config
		dispatches uint64
		makespan   des.Time
		read, wr   int64
	}{
		{
			name: "checkpoint",
			cfg:  pfs.DefaultConfig,
			run: func(e *des.Engine, fs *pfs.FS) des.Time {
				h := NewHarness(e, fs, 4, "cn", nil)
				return RunCheckpoint(h, CheckpointConfig{
					Ranks: 4, BytesPerRank: 8 << 20, Steps: 2,
					ComputeTime: des.Millisecond, TransferSize: 4 << 20,
				}).Makespan
			},
			dispatches: 1136,
			makespan:   100027326,
			read:       0,
			wr:         67108864,
		},
		{
			name: "campaign-point",
			cfg: func() pfs.Config {
				cfg := pfs.DefaultConfig()
				cfg.NumIONodes = 0
				cfg.OSTDevice = func() blockdev.Model { return blockdev.DefaultSSD() }
				return cfg
			},
			run: func(e *des.Engine, fs *pfs.FS) des.Time {
				pr, err := storage.NewProvider(e, fs, "", storage.ProviderConfig{})
				if err != nil {
					t.Fatal(err)
				}
				h := NewHarnessOn(e, fs, 4, "camp", nil, pr)
				return RunIOR(h, IORConfig{
					Ranks: 4, BlockSize: 4 << 20, TransferSize: 256 << 10,
					SharedFile: true, Pattern: Random, ReadBack: true,
					StripeCount: 4, StripeSize: 1 << 20,
				}).Makespan
			},
			dispatches: 1795,
			makespan:   28936393,
			read:       16777216,
			wr:         16777216,
		},
	}
	for _, tc := range cases {
		e := des.NewEngine(42)
		fs := pfs.New(e, tc.cfg())
		end := tc.run(e, fs)
		read, wr := fs.TotalBytes()
		if n := e.Dispatches(); n != tc.dispatches {
			t.Errorf("%s: %d dispatches, want %d", tc.name, n, tc.dispatches)
		}
		if end != tc.makespan {
			t.Errorf("%s: makespan %d, want %d", tc.name, end, tc.makespan)
		}
		if read != tc.read || wr != tc.wr {
			t.Errorf("%s: OST bytes read %d written %d, want %d and %d", tc.name, read, wr, tc.read, tc.wr)
		}
	}
}

// TestShardedBytesConserved checks that a sharded run completes without
// I/O errors in lookahead windows, that its ranks split across the shards,
// and that every checkpoint byte lands on some shard's OSTs.
func TestShardedBytesConserved(t *testing.T) {
	var shardFS []*pfs.FS
	rep := RunShardedCheckpoint(ShardedConfig{
		Scale: ScaleConfig{
			Ranks: 8, BytesPerRank: 1 << 20, Steps: 2,
			TransferSize: 512 << 10, StripeCount: 1,
		},
		Shards: 2,
		AttachShard: func(shard int, e *des.Engine, fs *pfs.FS) {
			shardFS = append(shardFS, fs)
		},
	})
	if rep.IOErrors != 0 {
		t.Errorf("unexpected I/O errors: %d", rep.IOErrors)
	}
	if rep.Windows == 0 {
		t.Error("report should count ParallelGroup windows")
	}
	var ranks int
	for _, n := range rep.RanksPerShard {
		ranks += n
	}
	if ranks != 8 {
		t.Errorf("ranks across shards = %d, want 8", ranks)
	}
	var written int64
	for _, fs := range shardFS {
		_, w := fs.TotalBytes()
		written += w
	}
	if want := int64(8 * (1 << 20) * 2); written != want {
		t.Errorf("bytes written across shards = %d, want %d", written, want)
	}
}

// TestShardedClusterSplit reads every shard's file-system configuration
// and checks that the shards split the cluster: object servers and I/O
// nodes are divided across shards, every shard keeps at least one of each
// the cluster has, and the shard count is capped at the rank and object
// server counts, so the shards never hold more servers than the cluster.
func TestShardedClusterSplit(t *testing.T) {
	flat := pfs.DefaultConfig()
	flat.NumIONodes = 0
	wide := pfs.DefaultConfig()
	wide.NumOSS, wide.NumIONodes = 8, 4
	for _, tc := range []struct {
		name            string
		fs              pfs.Config
		ranks, shards   int
		wantShards      int
		wantOSS, wantIO int
	}{
		{"one shard", pfs.Config{}, 8, 1, 1, 4, 2},
		{"two shards", pfs.Config{}, 8, 2, 2, 2, 1},
		{"uneven IO nodes", pfs.Config{}, 8, 3, 3, 1, 1},
		{"fewer IO nodes than shards", pfs.Config{}, 8, 4, 4, 1, 1},
		{"more shards than OSS", pfs.Config{}, 16, 8, 4, 1, 1},
		{"more shards than ranks", pfs.Config{}, 2, 4, 2, 2, 1},
		{"flat cluster stays flat", flat, 8, 4, 4, 1, 0},
		{"wide cluster", wide, 16, 8, 8, 1, 1},
	} {
		var got []pfs.Config
		rep := RunShardedCheckpoint(ShardedConfig{
			Scale: ScaleConfig{
				Ranks: tc.ranks, BytesPerRank: 64 << 10, Steps: 1,
				TransferSize: 64 << 10, StripeCount: 1,
			},
			Shards: tc.shards, FS: tc.fs, Seed: 1,
			AttachShard: func(_ int, _ *des.Engine, fs *pfs.FS) { got = append(got, fs.Config()) },
		})
		if rep.Shards != tc.wantShards || len(got) != tc.wantShards {
			t.Errorf("%s: %d shards reported, %d attached, want %d", tc.name, rep.Shards, len(got), tc.wantShards)
		}
		for i, c := range got {
			if c.NumOSS != tc.wantOSS || c.NumIONodes != tc.wantIO {
				t.Errorf("%s: shard %d has %d OSS and %d I/O nodes, want %d and %d",
					tc.name, i, c.NumOSS, c.NumIONodes, tc.wantOSS, tc.wantIO)
			}
		}
		if rep.IOErrors != 0 {
			t.Errorf("%s: %d I/O errors", tc.name, rep.IOErrors)
		}
	}
}

// TestShardedCheckpointAllocBudget holds the continuation path's
// allocation saving in place: a 4096-rank, 4-shard, one-step checkpoint
// must stay within 2.4 allocations per rank (2.20 measured; each shard
// keeps one of the default cluster's two I/O nodes and forwards through
// it, and the same run on a flat cluster measures 1.93). Per-operation
// state is pooled by the layer that owns it and every state machine is its
// own continuation, the pfs calls' continuation included; a data RPC runs
// on the EventProc its pooled call embeds; a burst of calls past a free
// list's cap is carved from shared chunks; a rank owns the handle it opens
// each file into; a shard's ranks, event ranks and, past the first 292
// clients and 256 inodes, clients and inodes are carved from shared
// slices; and a shard's file names for a step are one name block. No
// object is left per rank. What remains is a share of what a shard
// allocates one by one before it carves: its first 292 clients, 256
// inodes and the first 256 calls of each of five free lists, 1.79 a rank
// at 1,024 ranks a shard, and the growth of the namespace maps. Waiting
// allocates nothing: the waiter lists are threaded through the waiting
// processes.
func TestShardedCheckpointAllocBudget(t *testing.T) {
	const ranks, budget = 4096, 2.4
	cfg := ShardedConfig{
		Scale: ScaleConfig{
			Ranks: ranks, BytesPerRank: 1 << 20, Steps: 1,
			TransferSize: 1 << 20, RanksPerNode: 64, StripeCount: 1,
		},
		Shards: 4, Seed: 1,
	}
	var rep ShardedReport
	perRank := testing.AllocsPerRun(1, func() { rep = RunShardedCheckpoint(cfg) }) / ranks
	if rep.IOErrors != 0 || rep.Makespan == 0 {
		t.Fatalf("checkpoint failed: %d I/O errors, makespan %v", rep.IOErrors, rep.Makespan)
	}
	t.Logf("%.2f allocations per rank", perRank)
	if perRank > budget {
		t.Errorf("%.1f allocations per rank, budget %.1f", perRank, budget)
	}
}
