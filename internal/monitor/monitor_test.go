package monitor

import (
	"testing"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/pfs"
)

func newFS(e *des.Engine) *pfs.FS {
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	cfg.OSTDevice = func() blockdev.Model { return blockdev.DefaultSSD() }
	return pfs.New(e, cfg)
}

func TestSamplerCollectsSeries(t *testing.T) {
	e := des.NewEngine(3)
	fs := newFS(e)
	c := fs.NewClient("c0")
	s := NewSampler(e, fs, 10*des.Millisecond, des.Second)
	e.Spawn("app", func(p *des.Proc) {
		h, _ := c.Create(p, "/f", 0, 0)
		for i := int64(0); i < 10; i++ {
			h.Write(p, i*(1<<20), 1<<20)
			p.Wait(10 * des.Millisecond)
		}
		h.Close(p)
	})
	e.Run(des.MaxTime)
	samples := s.Samples()
	if len(samples) < 5 {
		t.Fatalf("samples = %d, want >= 5", len(samples))
	}
	// Monotone non-decreasing cumulative counters.
	for i := 1; i < len(samples); i++ {
		var prev, cur int64
		for j := range samples[i].OSTs {
			prev += samples[i-1].OSTs[j].BytesWritten
			cur += samples[i].OSTs[j].BytesWritten
		}
		if cur < prev {
			t.Fatalf("cumulative bytes decreased: %d -> %d", prev, cur)
		}
	}
	// Final sample must have seen all 10 MB.
	last := samples[len(samples)-1]
	var total int64
	for _, o := range last.OSTs {
		total += o.BytesWritten
	}
	if total != 10<<20 {
		t.Errorf("final sample bytes = %d, want 10MB", total)
	}
}

func TestDeriveRates(t *testing.T) {
	e := des.NewEngine(3)
	fs := newFS(e)
	c := fs.NewClient("c0")
	s := NewSampler(e, fs, 10*des.Millisecond, des.Second)
	e.Spawn("app", func(p *des.Proc) {
		h, _ := c.Create(p, "/f", 4, 1<<20)
		for i := int64(0); i < 20; i++ {
			h.Write(p, i*(1<<20), 1<<20)
			p.Wait(5 * des.Millisecond)
		}
		h.Close(p)
		s.Stop()
	})
	e.Run(des.MaxTime)
	rates := s.DeriveRates()
	if len(rates) == 0 {
		t.Fatal("no rates derived")
	}
	var sawWrite bool
	for _, r := range rates {
		if r.WriteBps > 0 {
			sawWrite = true
		}
		if r.ReadBps < 0 || r.WriteBps < 0 {
			t.Fatalf("negative rate: %+v", r)
		}
		if r.LoadImbalance < 1 && r.LoadImbalance != 1 {
			t.Fatalf("imbalance < 1: %+v", r)
		}
	}
	if !sawWrite {
		t.Error("no write bandwidth observed in any interval")
	}
}

func TestSamplerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero interval should panic")
		}
	}()
	e := des.NewEngine(1)
	NewSampler(e, newFS(e), 0, des.Second)
}

func TestFSWatcherEvents(t *testing.T) {
	e := des.NewEngine(3)
	fs := newFS(e)
	w := Watch(fs)
	c := fs.NewClient("c0")
	e.Spawn("app", func(p *des.Proc) {
		_ = c.Mkdir(p, "/d")
		h, _ := c.Create(p, "/d/f", 0, 0)
		h.Write(p, 0, 4096) // writes are not metadata events
		h.Close(p)
		_ = c.Unlink(p, "/d/f")
		_ = c.Rmdir(p, "/d")
	})
	e.Run(des.MaxTime)
	evs := w.Events()
	wantOps := []string{"mkdir", "create", "unlink", "rmdir"}
	if len(evs) != len(wantOps) {
		t.Fatalf("events = %d (%v), want %d", len(evs), evs, len(wantOps))
	}
	for i, op := range wantOps {
		if evs[i].Op != op {
			t.Errorf("event %d = %s, want %s", i, evs[i].Op, op)
		}
		if evs[i].Client != "c0" {
			t.Errorf("event client = %s", evs[i].Client)
		}
	}
	// Events are time-ordered.
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("events out of order")
		}
	}
}

func TestCorrelateFindsInterferingPairs(t *testing.T) {
	jobs := []JobActivity{
		{JobID: "j1", Start: 0, End: 100},
		{JobID: "j2", Start: 50, End: 150},  // overlaps j1 during high load
		{JobID: "j3", Start: 200, End: 300}, // disjoint
	}
	rates := []Rates{
		{At: 60, MaxOSTUtil: 0.95},
		{At: 120, MaxOSTUtil: 0.2},
		{At: 250, MaxOSTUtil: 0.1},
	}
	got := Correlate(jobs, rates, 0.9)
	if len(got) != 1 {
		t.Fatalf("interferences = %+v, want 1", got)
	}
	if got[0].A != "j1" || got[0].B != "j2" || got[0].Overlap != 50 {
		t.Errorf("pair = %+v", got[0])
	}
	// Lower threshold catches nothing extra for disjoint jobs.
	if got := Correlate(jobs, rates, 0.05); len(got) != 1 {
		t.Errorf("disjoint jobs must never interfere: %+v", got)
	}
}

func TestCorrelateNoRatesInWindow(t *testing.T) {
	jobs := []JobActivity{
		{JobID: "a", Start: 0, End: 10},
		{JobID: "b", Start: 5, End: 15},
	}
	if got := Correlate(jobs, nil, 0.5); len(got) != 0 {
		t.Errorf("no rates should mean no detected interference: %+v", got)
	}
}

func TestEndToEndStoryline(t *testing.T) {
	// Two jobs hammer the same FS concurrently; the correlator should
	// flag them using only server-side rates + job windows (experiment
	// C10's shape).
	e := des.NewEngine(3)
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	fs := pfs.New(e, cfg) // HDDs saturate easily
	s := NewSampler(e, fs, 5*des.Millisecond, 10*des.Second)
	var jobs []JobActivity
	for j := 0; j < 2; j++ {
		name := []string{"jobA", "jobB"}[j]
		c := fs.NewClient("cn" + name)
		e.Spawn(name, func(p *des.Proc) {
			start := p.Now()
			h, _ := c.Create(p, "/"+name, 0, 0)
			var bytes int64
			for i := int64(0); i < 32; i++ {
				h.Write(p, i*(1<<20), 1<<20)
				bytes += 1 << 20
			}
			h.Close(p)
			jobs = append(jobs, JobActivity{JobID: name, Start: start, End: p.Now(), Bytes: bytes})
		})
	}
	e.Run(des.MaxTime)
	s.Stop()
	inter := Correlate(jobs, s.DeriveRates(), 0.5)
	if len(inter) != 1 {
		t.Fatalf("expected the concurrent jobs to interfere, got %+v", inter)
	}
}
