package burstbuffer

import (
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

// TestWaitDrainedSyncsOnlyWrittenHandles pins the per-pass fsync set: a
// pass fsyncs the drain handles written since the previous pass, never
// every handle the buffer has opened.
func TestWaitDrainedSyncsOnlyWrittenHandles(t *testing.T) {
	e, fs, bb := newSim(0)
	fsyncs := map[string]int{}
	total := 0
	fs.SetOpObserver(func(ev pfs.OpEvent) {
		if ev.Client == "bb0" && ev.Op == "fsync" {
			fsyncs[ev.Path]++
			total++
		}
	})
	c := fs.NewClient("cn0")
	var afterLoop int
	e.Spawn("app", func(p *des.Proc) {
		// A file written straight to the PFS and read through the buffer:
		// its drain handle is opened for reading only.
		h, err := c.Create(p, "/direct", 0, 0)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := h.Write(p, 0, 1<<20); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := h.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := bb.Read(p, "/direct", 0, 1<<20); err != nil {
			t.Errorf("read-through: %v", err)
		}
		for i := 0; i < 64; i++ {
			bb.Write(p, fmt.Sprintf("/f%02d", i), 0, 4096)
			bb.WaitDrained(p)
		}
		afterLoop = total
		// A path rewritten after its pass is fsynced again.
		bb.Write(p, "/f00", 4096, 4096)
		bb.WaitDrained(p)
	})
	e.Run(des.MaxTime)
	if st := bb.Stats(); st.MissReads != 1<<20 {
		t.Fatalf("read-through bytes = %d, want 1MB (the read must miss staging)", st.MissReads)
	}
	if afterLoop != 64 {
		t.Errorf("64 write+sync passes issued %d drain fsyncs, want 64", afterLoop)
	}
	if fsyncs["/f00"] != 2 {
		t.Errorf("rewritten /f00 fsynced %d times, want 2", fsyncs["/f00"])
	}
	if fsyncs["/f01"] != 1 {
		t.Errorf("/f01 fsynced %d times, want 1", fsyncs["/f01"])
	}
	if fsyncs["/direct"] != 0 {
		t.Errorf("read-only drain handle fsynced %d times, want 0", fsyncs["/direct"])
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

// BenchmarkWaitDrainedManyFiles stages and syncs 2048 files one at a
// time, the mdtest pattern on a burst-buffer tier.
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
