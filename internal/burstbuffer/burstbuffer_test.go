package burstbuffer

import (
	"errors"
	"fmt"
	"testing"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/leakcheck"
	"pioeval/internal/pfs"
)

// newSim builds an engine + HDD-backed FS + one burst buffer.
func newSim(capacity int64) (*des.Engine, *pfs.FS, *Buffer) {
	e := des.NewEngine(5)
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	fs := pfs.New(e, cfg) // HDD OSTs: slow backing store
	bcfg := Config{DrainWorkers: 2}
	if capacity > 0 {
		bcfg.Capacity = capacity
	}
	bb := New(e, fs, "bb0", bcfg)
	return e, fs, bb
}

func TestWriteStagesAndDrains(t *testing.T) {
	e, fs, bb := newSim(0)
	var stagedAt des.Time
	e.Spawn("app", func(p *des.Proc) {
		for i := int64(0); i < 8; i++ {
			bb.Write(p, "/ckpt", i*(1<<20), 1<<20)
		}
		stagedAt = p.Now()
		bb.WaitDrained(p)
	})
	e.Run(des.MaxTime)
	st := bb.Stats()
	if st.Absorbed != 8<<20 || st.Drained != 8<<20 || st.Used != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// All data must have landed on the PFS.
	if _, w := fs.TotalBytes(); w != 8<<20 {
		t.Fatalf("PFS bytes = %d, want 8MB", w)
	}
	// Staging must complete before the drain finishes (asynchrony).
	if stagedAt >= e.Now() {
		t.Errorf("staging (%v) should finish before drain completes (%v)", stagedAt, e.Now())
	}
}

func TestBurstAbsorption(t *testing.T) {
	// The Figure-1 claim: a bursty checkpoint completes much faster into
	// the burst buffer than directly into the HDD-backed PFS.
	burst := int64(32 << 20)

	// Direct-to-PFS time.
	e1 := des.NewEngine(5)
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	fs1 := pfs.New(e1, cfg)
	c := fs1.NewClient("cn0")
	var direct des.Time
	e1.Spawn("app", func(p *des.Proc) {
		h, _ := c.Create(p, "/ckpt", 0, 0)
		h.Write(p, 0, burst)
		h.Close(p)
		direct = p.Now()
	})
	e1.Run(des.MaxTime)

	// Through the burst buffer.
	e2, _, bb := newSim(0)
	var buffered des.Time
	e2.Spawn("app", func(p *des.Proc) {
		bb.Write(p, "/ckpt", 0, burst)
		buffered = p.Now()
	})
	e2.Run(des.MaxTime)

	if buffered >= direct {
		t.Fatalf("burst buffer (%v) should absorb faster than direct PFS (%v)", buffered, direct)
	}
	if ratio := float64(direct) / float64(buffered); ratio < 2 {
		t.Errorf("absorption speedup = %.1fx, want >= 2x", ratio)
	}
}

func TestCapacityBackpressure(t *testing.T) {
	// A buffer smaller than the burst forces stalls but still completes.
	e, fs, bb := newSim(4 << 20)
	e.Spawn("app", func(p *des.Proc) {
		for i := int64(0); i < 16; i++ {
			bb.Write(p, "/ckpt", i*(1<<20), 1<<20)
		}
		bb.WaitDrained(p)
	})
	e.Run(des.MaxTime)
	st := bb.Stats()
	if st.Stalls == 0 {
		t.Error("expected backpressure stalls with a small buffer")
	}
	if st.PeakUsed > 4<<20 {
		t.Errorf("peak usage %d exceeded capacity", st.PeakUsed)
	}
	if _, w := fs.TotalBytes(); w != 16<<20 {
		t.Fatalf("PFS bytes = %d, want 16MB", w)
	}
}

func TestReadHitFromStaging(t *testing.T) {
	e, _, bb := newSim(0)
	e.Spawn("app", func(p *des.Proc) {
		bb.Write(p, "/f", 0, 1<<20)
		// Data not drained yet (probably): read should hit staging.
		bb.Read(p, "/f", 0, 1<<20)
		bb.WaitDrained(p)
		// After drain, reads go to the PFS.
		bb.Read(p, "/f", 0, 1<<20)
	})
	e.Run(des.MaxTime)
	st := bb.Stats()
	if st.BufReads == 0 {
		t.Error("expected a staged read hit")
	}
	if st.MissReads == 0 {
		t.Error("expected a post-drain PFS read")
	}
}

func TestShutdownStopsWorkers(t *testing.T) {
	// Drain workers are real goroutines (des.Engine.Spawn); a missed
	// shutdown sentinel would leave them parked forever.
	leakcheck.Check(t)
	e, _, bb := newSim(0)
	e.Spawn("app", func(p *des.Proc) {
		bb.Write(p, "/f", 0, 1<<10)
		bb.WaitDrained(p)
		bb.Shutdown()
	})
	e.Run(des.MaxTime)
	if e.LiveProcs() != 0 {
		t.Fatalf("%d workers still alive after shutdown", e.LiveProcs())
	}
}

func TestZeroSizeWriteIgnored(t *testing.T) {
	e, _, bb := newSim(0)
	e.Spawn("app", func(p *des.Proc) {
		bb.Write(p, "/f", 0, 0)
		bb.Read(p, "/f", 0, 0)
	})
	e.Run(des.MaxTime)
	if st := bb.Stats(); st.Absorbed != 0 {
		t.Errorf("zero write absorbed %d", st.Absorbed)
	}
}

func TestConfigDefaults(t *testing.T) {
	var zero Config
	c := zero.withDefaults()
	if c.Device == nil || c.QueueDepth <= 0 || c.Capacity <= 0 || c.DrainWorkers <= 0 {
		t.Errorf("defaults missing: %+v", c)
	}
}

func TestDrainWorkersParallelism(t *testing.T) {
	// More drain workers finish the drain sooner.
	drainTime := func(workers int) des.Time {
		e := des.NewEngine(5)
		cfg := pfs.DefaultConfig()
		cfg.NumIONodes = 0
		cfg.OSTDevice = func() blockdev.Model { return blockdev.DefaultSSD() }
		fs := pfs.New(e, cfg)
		bb := New(e, fs, "bb0", Config{DrainWorkers: workers})
		e.Spawn("app", func(p *des.Proc) {
			for i := int64(0); i < 16; i++ {
				bb.Write(p, "/f", i*(1<<20), 1<<20)
			}
			bb.WaitDrained(p)
		})
		return e.Run(des.MaxTime)
	}
	if one, four := drainTime(1), drainTime(4); four >= one {
		t.Errorf("4 drainers (%v) should beat 1 (%v)", four, one)
	}
}

// TestDrainWorkersOpenDistinctHandles: two drain workers that open fresh
// paths at the same time each open into a handle of their own; sharing
// one would panic with pfs.ErrHandleOpen.
func TestDrainWorkersOpenDistinctHandles(t *testing.T) {
	e, fs, bb := newSim(0)
	first, last := map[string]des.Time{}, map[string]des.Time{}
	fs.SetOpObserver(func(ev pfs.OpEvent) {
		if ev.Client != "bb0" || (ev.Op != "open" && ev.Op != "create") {
			return
		}
		if _, ok := first[ev.Path]; !ok {
			first[ev.Path] = ev.Start
		}
		last[ev.Path] = ev.End
	})
	e.Spawn("app", func(p *des.Proc) {
		bb.Write(p, "/a", 0, 4096)
		bb.Write(p, "/b", 0, 4096)
		if err := bb.WaitDrained(p); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	e.Run(des.MaxTime)
	if first["/b"] >= last["/a"] {
		t.Fatalf("the drain opens did not overlap: /a until %v, /b from %v", last["/a"], first["/b"])
	}
	if st := bb.Stats(); st.Drained != 2*4096 || st.DrainErrors != 0 {
		t.Errorf("stats = %+v", st)
	}
	if bb.handles["/a"] == bb.handles["/b"] {
		t.Error("both paths drain through one handle")
	}
}

// TestDrainWorkersCreateOnePath: two drain workers that take segments of
// the same new path both fail the open and both create it; the create
// that loses the race gets pfs.ErrExist and must open the file instead of
// losing its segment.
func TestDrainWorkersCreateOnePath(t *testing.T) {
	e, fs, bb := newSim(0)
	e.Spawn("app", func(p *des.Proc) {
		bb.Write(p, "/p", 0, 4096)
		bb.Write(p, "/p", 4096, 4096)
		if err := bb.WaitDrained(p); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	e.Run(des.MaxTime)
	if st := bb.Stats(); st.Drained != 2*4096 || st.DrainErrors != 0 || st.LostBytes != 0 {
		t.Errorf("stats = %+v", st)
	}
	if _, w := fs.TotalBytes(); w != 2*4096 {
		t.Errorf("PFS bytes = %d, want %d", w, 2*4096)
	}
}

// TestDrainOpenAllocs: a read-through miss on a path the buffer has not
// opened yet opens a drain handle carved from the buffer's slab, so within
// a slab it allocates nothing. The handle map is sized up front so that
// its growth is not counted.
func TestDrainOpenAllocs(t *testing.T) {
	const files = drainSlab / 2
	e, fs, bb := newSim(0)
	bb.handles = make(map[string]*pfs.Handle, 4*files)
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/f%02d", i)
	}
	c := fs.NewClient("cn0")
	kick := new(des.Signal)
	var readErr error
	next := 0
	e.Spawn("app", func(p *des.Proc) {
		for _, path := range paths {
			h, err := c.Create(p, path, 0, 0)
			if err == nil {
				err = h.Write(p, 0, 4096)
			}
			if err == nil {
				err = h.Close(p)
			}
			if err != nil {
				readErr = err
				return
			}
		}
		for next < files {
			kick.Wait(p)
			if readErr = bb.Read(p, paths[next], 0, 4096); readErr != nil {
				return
			}
			next++
		}
	})
	round := func() {
		kick.Fire()
		e.Run(des.MaxTime)
	}
	e.Run(des.MaxTime)
	round()
	n := testing.AllocsPerRun(files-2, round)
	if readErr != nil || next != files {
		t.Fatalf("read-through: %v after %d of %d files", readErr, next, files)
	}
	if st := bb.Stats(); st.MissReads != files*4096 {
		t.Fatalf("read-through bytes = %d, want %d", st.MissReads, files*4096)
	}
	if n != 0 {
		t.Errorf("drain-handle open and read: %v allocations per file, want 0", n)
	}
}

// BenchmarkWaitDrainedManyFiles stages 2048 files one at a time and
// waits for each to drain, the mdtest pattern on a burst-buffer tier.
func BenchmarkWaitDrainedManyFiles(b *testing.B) {
	const files = 2048
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/f%05d", i)
	}
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		e, _, bb := newSim(0)
		e.Spawn("app", func(p *des.Proc) {
			for _, path := range paths {
				bb.Write(p, path, 0, 4096)
				bb.WaitDrained(p)
			}
		})
		e.Run(des.MaxTime)
		if st := bb.Stats(); st.Drained != files*4096 {
			b.Fatalf("drained = %d, want %d", st.Drained, files*4096)
		}
	}
}

// TestResetMatchesNew: a buffer that staged, drained and shut down, reset
// with its engine and file system, runs the next job exactly as a new
// buffer on a new engine and file system does: the same statistics, the
// same bytes on the PFS and the same end time, its two drain workers
// restarted in place and its drain handles of the last job reused. Reset
// refuses a buffer with a segment staged.
func TestResetMatchesNew(t *testing.T) {
	job := func(e *des.Engine, bb *Buffer, path string) {
		e.Spawn("app", func(p *des.Proc) {
			for i := int64(0); i < 4; i++ {
				bb.Write(p, path, i*(1<<20), 1<<20)
			}
			if err := bb.WaitDrained(p); err != nil {
				t.Error(err)
			}
			bb.Shutdown()
		})
		e.Run(des.MaxTime)
		if e.LiveProcs() != 0 {
			t.Fatalf("%d live procs after the job", e.LiveProcs())
		}
	}
	e0, fs0, fresh := newSim(0)
	job(e0, fresh, "/next")
	_, w0 := fs0.TotalBytes()

	e, fs, bb := newSim(0)
	job(e, bb, "/first")
	e.Reset(5)
	fs.Reset()
	bb.Reset()
	job(e, bb, "/next")
	if _, w := fs.TotalBytes(); bb.Stats() != fresh.Stats() || w != w0 || e.Now() != e0.Now() {
		t.Errorf("reset buffer: %+v, %d PFS bytes at %v; new buffer: %+v, %d at %v", bb.Stats(), w, e.Now(), fresh.Stats(), w0, e0.Now())
	}
	if len(bb.spare) != 0 || len(bb.slab) != len(fresh.slab) {
		t.Errorf("drain handles: %d spare, %d in the slab; want the last job's reused (0 spare, %d in the slab)", len(bb.spare), len(bb.slab), len(fresh.slab))
	}

	e.Reset(5)
	fs.Reset()
	bb.Reset()
	e.Spawn("app", func(p *des.Proc) { bb.Write(p, "/staged", 0, 1<<20) })
	e.Run(des.FromSeconds(1e-3)) // staged, not yet drained
	if bb.Stats().Used == 0 {
		t.Fatal("nothing staged at the reset: the case tests nothing")
	}
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, des.ErrLiveReset) {
			t.Errorf("reset with a segment staged: panic %v, want des.ErrLiveReset", err)
		}
	}()
	bb.Reset()
}
