package storage

import (
	"errors"
	"fmt"
	"testing"

	"pioeval/internal/blockdev"
	"pioeval/internal/burstbuffer"
	"pioeval/internal/des"
	"pioeval/internal/pfs"
)

func newCluster(seed int64) (*des.Engine, *pfs.FS) {
	e := des.NewEngine(seed)
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	cfg.OSTDevice = func() blockdev.Model { return blockdev.DefaultSSD() }
	return e, pfs.New(e, cfg)
}

// TestDirectEquivalence proves the DirectPFS adapter is a zero-cost seam:
// the same op sequence through the raw client and through the adapter
// produces identical simulated times and byte counters.
func TestDirectEquivalence(t *testing.T) {
	type outcome struct {
		end         des.Time
		read, wrote int64
	}
	run := func(throughSeam bool) outcome {
		e, fs := newCluster(7)
		c := fs.NewClient("cn0")
		e.Spawn("app", func(p *des.Proc) {
			if throughSeam {
				d := Direct(c)
				h, err := d.Create(p, "/f", 2, 1<<20)
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				for off := int64(0); off < 8<<20; off += 1 << 20 {
					_ = h.Write(p, off, 1<<20)
				}
				_ = h.Fsync(p)
				_ = h.Read(p, 0, 4<<20)
				_ = h.Close(p)
				_, _ = d.Stat(p, "/f")
				_ = d.Mkdir(p, "/d")
				_, _ = d.Readdir(p, "/")
			} else {
				h, err := c.Create(p, "/f", 2, 1<<20)
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				for off := int64(0); off < 8<<20; off += 1 << 20 {
					_ = h.Write(p, off, 1<<20)
				}
				_ = h.Fsync(p)
				_ = h.Read(p, 0, 4<<20)
				_ = h.Close(p)
				_, _ = c.Stat(p, "/f")
				_ = c.Mkdir(p, "/d")
				_, _ = c.Readdir(p, "/")
			}
		})
		e.Run(des.MaxTime)
		r, w := fs.TotalBytes()
		return outcome{end: e.Now(), read: r, wrote: w}
	}
	raw, seam := run(false), run(true)
	if raw != seam {
		t.Fatalf("direct seam diverged: raw %+v, seam %+v", raw, seam)
	}
}

// TestDirectErrorsStayTyped checks that the adapter preserves error
// identity — errors.Is against the re-exported sentinels must keep
// working through the seam.
func TestDirectErrorsStayTyped(t *testing.T) {
	e, fs := newCluster(1)
	d := Direct(fs.NewClient("cn0"))
	e.Spawn("app", func(p *des.Proc) {
		if _, err := d.Open(p, "/missing"); !errors.Is(err, ErrNotExist) {
			t.Errorf("open missing = %v, want ErrNotExist", err)
		}
		if _, err := d.Open(p, "/missing"); !errors.Is(err, pfs.ErrNotExist) {
			t.Errorf("alias identity lost: %v", err)
		}
		if _, err := d.Create(p, "/f", 0, 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := d.Create(p, "/f", 0, 0); !errors.Is(err, ErrExist) {
			t.Errorf("dup create = %v, want ErrExist", err)
		}
		// Failed Create/Open must return a nil interface, not a non-nil
		// interface wrapping a nil pointer.
		if h, err := d.Open(p, "/missing"); err != nil && h != nil {
			t.Errorf("failed open returned non-nil handle %#v", h)
		}
	})
	e.Run(des.MaxTime)
}

// TestNodeLocalNamespace exercises the private scratch namespace: POSIX
// error semantics without any MDS traffic.
func TestNodeLocalNamespace(t *testing.T) {
	e, fs := newCluster(1)
	nl := NewNodeLocal(e, "cn0", blockdev.DefaultNVMe(), 8)
	e.Spawn("app", func(p *des.Proc) {
		if err := nl.Mkdir(p, "/d"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		h, err := nl.Create(p, "/d/f", 2, 1<<20)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := nl.Create(p, "/d/f", 0, 0); !errors.Is(err, ErrExist) {
			t.Errorf("dup create = %v", err)
		}
		if err := h.Write(p, 0, 4<<20); err != nil {
			t.Fatalf("write: %v", err)
		}
		fi, err := nl.Stat(p, "/d/f")
		if err != nil || fi.Size != 4<<20 {
			t.Fatalf("stat = %+v, %v", fi, err)
		}
		if fi.Layout.StripeCount != 2 || fi.Layout.StripeSize != 1<<20 {
			t.Errorf("stripe hints not recorded: %+v", fi.Layout)
		}
		if err := h.Read(p, 0, 1<<20); err != nil {
			t.Fatalf("read: %v", err)
		}
		if err := h.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := h.Write(p, 0, 1); !errors.Is(err, ErrClosedHandle) {
			t.Errorf("write after close = %v", err)
		}
		if _, err := nl.Open(p, "/d"); !errors.Is(err, ErrIsDir) {
			t.Errorf("open dir = %v", err)
		}
		if err := nl.Rmdir(p, "/d"); !errors.Is(err, ErrNotEmpty) {
			t.Errorf("rmdir non-empty = %v", err)
		}
		names, err := nl.Readdir(p, "/d")
		if err != nil || len(names) != 1 || names[0] != "/d/f" {
			t.Fatalf("readdir = %v, %v", names, err)
		}
		if err := nl.Unlink(p, "/d/f"); err != nil {
			t.Fatalf("unlink: %v", err)
		}
		if err := nl.Rmdir(p, "/d"); err != nil {
			t.Fatalf("rmdir: %v", err)
		}
		if _, err := nl.Open(p, "/d/f"); !errors.Is(err, ErrNotExist) {
			t.Errorf("open unlinked = %v", err)
		}
		if _, err := nl.Create(p, "/nodir/f", 0, 0); !errors.Is(err, ErrNotExist) {
			t.Errorf("create under missing dir = %v", err)
		}
	})
	e.Run(des.MaxTime)
	st := nl.Stats()
	if st.BytesWritten != 4<<20 || st.BytesRead != 1<<20 {
		t.Errorf("stats = %+v", st)
	}
	// The scratch tier never talks to the MDS.
	if md := fs.MDSStats(); md.TotalOps != 0 {
		t.Errorf("node-local tier issued %d MDS ops", md.TotalOps)
	}
}

// TestTieredHandleClose: I/O on a closed tier handle fails with
// ErrClosedHandle, as on a closed node-local one, and a second Close
// returns nil without releasing the handle again, so the next two opens
// get distinct handles. Under the quarantine tag the released handle is
// poisoned and never handed out again.
func TestTieredHandleClose(t *testing.T) {
	e, fs := newCluster(1)
	tgt := NewTiered(fs.NewClient("cn0"), burstbuffer.New(e, fs, "bb0", burstbuffer.Config{}))
	e.Spawn("app", func(p *des.Proc) {
		h, err := tgt.Create(p, "/f", 0, 0)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := h.Write(p, 0, 4096); err != nil {
			t.Fatalf("write: %v", err)
		}
		free := tgt.free.Len()
		if err := h.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := h.Write(p, 0, 1); !errors.Is(err, ErrClosedHandle) {
			t.Errorf("write after close = %v", err)
		}
		if err := h.Read(p, 0, 1); !errors.Is(err, ErrClosedHandle) {
			t.Errorf("read after close = %v", err)
		}
		if err := h.Fsync(p); !errors.Is(err, ErrClosedHandle) {
			t.Errorf("fsync after close = %v", err)
		}
		if err := h.Close(p); err != nil {
			t.Errorf("second close = %v", err)
		}
		if des.Quarantine {
			if !h.(*tieredHandle).Recycled() {
				t.Error("a released handle was not poisoned")
			}
		} else if n := tgt.free.Len() - free; n != 1 {
			t.Errorf("two closes released the handle %d times, want 1", n)
		}
		a, err := tgt.Open(p, "/f")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		b, err := tgt.Open(p, "/f")
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		if a == b {
			t.Error("two opens got one handle")
		}
		if des.Quarantine && (a == h || b == h) {
			t.Error("a released handle was handed out again")
		}
		_, _ = a.Close(p), b.Close(p)
	})
	e.Run(des.MaxTime)
}

// TestNodeLocalMetadataIsFree: namespace operations on the scratch tier
// cost zero simulated time (no MDS round-trips).
func TestNodeLocalMetadataIsFree(t *testing.T) {
	e, _ := newCluster(1)
	nl := NewNodeLocal(e, "cn0", blockdev.DefaultNVMe(), 8)
	e.Spawn("app", func(p *des.Proc) {
		start := p.Now()
		_ = nl.Mkdir(p, "/d")
		h, _ := nl.Create(p, "/d/f", 0, 0)
		_, _ = nl.Stat(p, "/d/f")
		_, _ = nl.Readdir(p, "/d")
		_ = h.Fsync(p)
		_ = h.Close(p)
		if p.Now() != start {
			t.Errorf("metadata ops cost %v, want 0", p.Now()-start)
		}
	})
	e.Run(des.MaxTime)
}

func TestProviderRejectsUnknownTier(t *testing.T) {
	e, fs := newCluster(1)
	if _, err := NewProvider(e, fs, "warp", ProviderConfig{}); err == nil {
		t.Fatal("unknown tier accepted")
	}
}

func TestProviderEmptyTierIsDirect(t *testing.T) {
	e, fs := newCluster(1)
	pr, err := NewProvider(e, fs, "", ProviderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Tier() != TierDirect {
		t.Fatalf("tier = %q", pr.Tier())
	}
	if _, ok := pr.Target("cn0").(*DirectPFS); !ok {
		t.Fatalf("target is %T, want *DirectPFS", pr.Target("cn0"))
	}
	if pr.NeedsFinalize() {
		t.Error("direct tier should not need finalize")
	}
}

// TestProviderSharesBufferPerIONode: on a flat network every client routes
// through one shared buffer; finalize is required once a buffer exists.
func TestProviderSharesBufferPerIONode(t *testing.T) {
	e, fs := newCluster(1)
	pr, err := NewProvider(e, fs, TierBB, ProviderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a := pr.Target("cn0").(*TieredBB)
	b := pr.Target("cn1").(*TieredBB)
	if a.bb != b.bb {
		t.Error("flat network should share one buffer")
	}
	if len(pr.Buffers()) != 1 {
		t.Errorf("buffers = %d, want 1", len(pr.Buffers()))
	}
	if !pr.NeedsFinalize() {
		t.Error("bb tier with buffers must need finalize")
	}
}

// TestTieredWriteReadDrain drives the tiered target end to end: staged
// writes, fsync-as-drain, staged reads, and PFS-visible bytes afterwards.
func TestTieredWriteReadDrain(t *testing.T) {
	e, fs := newCluster(3)
	pr, err := NewProvider(e, fs, TierBB, ProviderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tgt := pr.Target("cn0")
	e.Spawn("app", func(p *des.Proc) {
		h, err := tgt.Create(p, "/ckpt", 0, 0)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		for off := int64(0); off < 8<<20; off += 1 << 20 {
			if err := h.Write(p, off, 1<<20); err != nil {
				t.Errorf("write: %v", err)
			}
		}
		if err := h.Fsync(p); err != nil {
			t.Errorf("fsync: %v", err)
		}
		if err := h.Read(p, 0, 1<<20); err != nil {
			t.Errorf("read: %v", err)
		}
		if err := h.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	e.Run(des.MaxTime)
	st := pr.Buffers()[0].Stats()
	if st.Absorbed != 8<<20 || st.Drained != 8<<20 || st.Used != 0 {
		t.Fatalf("buffer stats = %+v", st)
	}
	if _, w := fs.TotalBytes(); w != 8<<20 {
		t.Fatalf("PFS bytes = %d, want 8MB", w)
	}
	if st.DrainErrors != 0 || st.LastDrainError != nil {
		t.Errorf("unexpected drain errors: %+v", st)
	}
}

// TestProviderFinalizeStopsWorkers: after Finalize the drain workers have
// exited, so the engine reports no live processes.
func TestProviderFinalizeStopsWorkers(t *testing.T) {
	e, fs := newCluster(3)
	pr, err := NewProvider(e, fs, TierBB, ProviderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tgt := pr.Target("cn0")
	e.Spawn("app", func(p *des.Proc) {
		h, _ := tgt.Create(p, "/f", 0, 0)
		_ = h.Write(p, 0, 1<<20)
		_ = h.Close(p)
		if err := pr.Finalize(p); err != nil {
			t.Errorf("finalize: %v", err)
		}
	})
	e.Run(des.MaxTime)
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("%d live procs after finalize", n)
	}
}

// TestNodeLocalTargetsArePrivate: each node gets its own namespace; the
// same path on two targets is two files.
func TestNodeLocalTargetsArePrivate(t *testing.T) {
	e, fs := newCluster(1)
	pr, err := NewProvider(e, fs, TierNodeLocal, ProviderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t0, t1 := pr.Target("cn0"), pr.Target("cn1")
	e.Spawn("app", func(p *des.Proc) {
		if _, err := t0.Create(p, "/f", 0, 0); err != nil {
			t.Errorf("cn0 create: %v", err)
		}
		if _, err := t1.Create(p, "/f", 0, 0); err != nil {
			t.Errorf("cn1 create (private namespace): %v", err)
		}
		if _, err := t1.Open(p, "/g"); !errors.Is(err, ErrNotExist) {
			t.Errorf("cross-node visibility: %v", err)
		}
	})
	e.Run(des.MaxTime)
	if got := len(pr.Locals()); got != 2 {
		t.Fatalf("locals = %d, want 2", got)
	}
	for i, nl := range pr.Locals() {
		if st := nl.Stats(); st.Files != 1 {
			t.Errorf("node %d files = %d, want 1", i, st.Files)
		}
	}
}

// TestProviderDeterministicBufferNames: buffer names derive from I/O-node
// identity, not creation timing.
func TestProviderDeterministicBufferNames(t *testing.T) {
	e := des.NewEngine(1)
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 2
	fs := pfs.New(e, cfg)
	pr, err := NewProvider(e, fs, TierBB, ProviderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		pr.Target(fmt.Sprintf("cn%d", i))
	}
	if got := len(pr.Buffers()); got != 2 {
		t.Fatalf("buffers = %d, want one per I/O node", got)
	}
	seen := map[string]bool{}
	for _, bb := range pr.Buffers() {
		seen[bb.Node()] = true
	}
	if len(seen) != 2 {
		t.Errorf("buffer names collide: %v", seen)
	}
}
