package stack

import (
	"errors"
	"fmt"
	"testing"

	"pioeval/internal/des"
	"pioeval/internal/leakcheck"
	"pioeval/internal/mpi"
	"pioeval/internal/pfs"
	"pioeval/internal/posixio"
	"pioeval/internal/reduce"
	"pioeval/internal/storage"
	"pioeval/internal/workload"
)

// testConfig is a small flat-network stack of tier with the compress
// stage ("" for none).
func testConfig(tier, compress string, seed int64) Config {
	cluster := pfs.DefaultConfig()
	cluster.NumIONodes = 0
	return Config{Cluster: cluster, Seed: seed, Tier: tier, Compress: compress}
}

// TestLenderReusesByKey: a stack given back is lent again, reset, for its
// own key only; at most the set number of stacks stay idle, the oldest
// dropped first.
func TestLenderReusesByKey(t *testing.T) {
	l := NewLender[string](1)
	take := func(key string) *Loan {
		t.Helper()
		ln, err := l.Take(key, testConfig(storage.TierDirect, "", 3))
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	a := take("a")
	l.Put("a", a)
	b := take("b")
	if b == a {
		t.Fatal("a stack of key a was lent for key b")
	}
	l.Put("b", b) // drops a: one stack stays idle
	if take("a") == a {
		t.Error("the oldest idle stack was kept past the bound")
	}
	if take("b") != b {
		t.Error("an idle stack of key b was not lent again")
	}
	if _, err := l.Take("c", Config{Tier: "tape"}); err == nil {
		t.Error("a configuration New rejects was lent")
	}
}

// TestLenderClosesEngines: the ranks and burst-buffer drain workers of
// jobs on a lent stack are restarted in place and, with coroutine procs,
// park their coroutines between jobs; the lender closes the engine of the
// stack it evicts and, at Close, of each idle stack, so none of those
// coroutines outlives the run.
func TestLenderClosesEngines(t *testing.T) {
	leakcheck.Check(t)
	l := NewLender[string](1)
	job := func(key string) {
		t.Helper()
		ln, err := l.Take(key, testConfig(storage.TierBB, "", 3))
		if err != nil {
			t.Fatal(err)
		}
		h := ln.Harness(2, "r", nil)
		h.Run(func(r *mpi.Rank, env *posixio.Env) {
			fd, err := env.Open(r.Proc(), fmt.Sprintf("/f%d", r.ID()), posixio.OCreate)
			if err == nil {
				_, err = env.Write(r.Proc(), fd, 1<<20)
			}
			if err == nil {
				err = env.Close(r.Proc(), fd)
			}
			if err != nil {
				t.Error(err)
			}
			r.Barrier()
		})
		l.Put(key, ln)
	}
	for _, key := range []string{"a", "a", "a", "b", "b", "b"} { // b evicts a
		job(key)
	}
	l.Close()
}

// TestStaleHandlesAfterReset: the tier and stage handles of a job are
// stale once its stack is reset, on every tier with and without
// compression. Write, Read and Fsync fail with storage.ErrStaleHandle
// before any simulated time passes and stage nothing; Close fails the
// same way, twice, and releases nothing, so the next job's opens get
// handles of their own. A handle the job closed stays closed. The reset
// provider hands the node the target it had.
func TestStaleHandlesAfterReset(t *testing.T) {
	for _, tc := range []struct{ tier, compress string }{
		{storage.TierBB, ""}, {storage.TierBB, "lz"},
		{storage.TierDirect, "lz"},
		{storage.TierNodeLocal, ""}, {storage.TierNodeLocal, "lz"},
	} {
		name := fmt.Sprintf("tier=%s compress=%q", tc.tier, tc.compress)
		st, err := New(testConfig(tc.tier, tc.compress, 1))
		if err != nil {
			t.Fatal(err)
		}
		tgt := st.Provider.Target("cn0")
		var open, closed storage.Handle
		st.E.Spawn("job", func(p *des.Proc) {
			var err error
			if open, err = tgt.Create(p, "/open", 0, 0); err == nil {
				err = open.Write(p, 0, 1<<20)
			}
			if err == nil {
				if closed, err = tgt.Create(p, "/closed", 0, 0); err == nil {
					err = closed.Close(p)
				}
			}
			if err != nil {
				t.Errorf("%s: before the reset: %v", name, err)
			}
			if err := st.Provider.Finalize(p); err != nil {
				t.Errorf("%s: finalize: %v", name, err)
			}
		})
		st.E.Run(des.MaxTime)
		if open == nil || closed == nil {
			t.Fatalf("%s: the first job opened no handle", name)
		}

		st.Reset(2)
		if got := st.Provider.Target("cn0"); got != tgt {
			t.Errorf("%s: the reset provider minted a new target for cn0", name)
		}
		st.E.Spawn("next", func(p *des.Proc) {
			t0 := p.Now()
			for i, err := range []error{open.Write(p, 0, 4096), open.Read(p, 0, 4096), open.Fsync(p), open.Close(p), open.Close(p)} {
				if !errors.Is(err, storage.ErrStaleHandle) {
					t.Errorf("%s: operation %d on a stale handle: %v, want ErrStaleHandle", name, i, err)
				}
			}
			if p.Now() != t0 {
				t.Errorf("%s: stale operations took %v of simulated time", name, p.Now()-t0)
			}
			if err := closed.Close(p); err != nil && !errors.Is(err, storage.ErrStaleHandle) {
				t.Errorf("%s: closing a handle closed before the reset: %v", name, err)
			}
			a, erra := tgt.Create(p, "/a", 0, 0)
			b, errb := tgt.Create(p, "/b", 0, 0)
			if erra != nil || errb != nil {
				t.Fatalf("%s: opens after the reset: %v, %v", name, erra, errb)
			}
			if a == open || b == open || a == b {
				t.Errorf("%s: an open after the reset got a handle still held (stale %p, new %p and %p)", name, open, a, b)
			}
			for _, h := range []storage.Handle{a, b} {
				if err := h.Close(p); err != nil {
					t.Errorf("%s: close: %v", name, err)
				}
			}
			if err := st.Provider.Finalize(p); err != nil {
				t.Errorf("%s: finalize: %v", name, err)
			}
		})
		st.E.Run(des.MaxTime)
		for _, bb := range st.Provider.Buffers() {
			if s := bb.Stats(); s.Absorbed != 0 {
				t.Errorf("%s: the buffer absorbed %d bytes after the reset, want 0", name, s.Absorbed)
			}
		}
		for _, nl := range st.Provider.Locals() {
			if s := nl.Stats(); s.BytesWritten != 0 || s.BytesRead != 0 {
				t.Errorf("%s: scratch moved bytes after the reset: %+v", name, s)
			}
		}
		if st.Stage != nil {
			if s := st.Stage.StageStats(); s != (storage.StageStats{}) {
				t.Errorf("%s: the stage accounted %+v after the reset, want nothing", name, s)
			}
		}
	}
}

// TestSetupAllocs pins what a new job's storage costs on top of its
// engine and file system: a burst-buffer provider, an lz stage and a
// 16-rank harness (the set-up perfbench's io500-bb-lz times) allocate
// 135 objects, one fewer than before the burst buffer dropped its set of
// handles to fsync. The bound is those 136: before the provider kept its
// targets for reuse the same set-up allocated 138, and neither change
// may make a new stack dearer.
func TestSetupAllocs(t *testing.T) {
	cluster := testConfig(storage.TierBB, "lz", 1).Cluster
	build := func(mount bool) {
		e := des.NewEngine(1)
		fs := pfs.New(e, cluster)
		if !mount {
			return
		}
		pr, err := storage.NewProvider(e, fs, storage.TierBB, storage.ProviderConfig{})
		if err != nil {
			t.Fatal(err)
		}
		stage, err := reduce.New("lz")
		if err != nil {
			t.Fatal(err)
		}
		pr.Push(stage)
		workload.NewHarnessOn(e, fs, 16, "cn", nil, pr)
	}
	n := testing.AllocsPerRun(20, func() { build(true) }) - testing.AllocsPerRun(20, func() { build(false) })
	t.Logf("%v allocations", n)
	if n > 136 {
		t.Errorf("provider, stage and harness set-up allocates %v objects, want <= 136", n)
	}
}
