package pfs

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/netsim"
)

// fastConfig returns a deployment with SSD OSTs and no I/O-node tier, for
// quick deterministic tests.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.NumIONodes = 0
	cfg.OSTDevice = func() blockdev.Model { return blockdev.DefaultSSD() }
	return cfg
}

// runClient builds an FS, spawns fn as a single client process, runs the
// simulation to completion, and fails the test on simulated deadlock.
func runClient(t *testing.T, cfg Config, fn func(p *des.Proc, c *Client)) (*FS, des.Time) {
	t.Helper()
	e := des.NewEngine(42)
	fs := New(e, cfg)
	c := fs.NewClient("client0")
	e.Spawn("client0", func(p *des.Proc) { fn(p, c) })
	end := e.Run(des.MaxTime)
	if e.LiveProcs() != 0 {
		t.Fatalf("simulated deadlock: %d live procs", e.LiveProcs())
	}
	return fs, end
}

func TestCleanPath(t *testing.T) {
	cases := []struct{ in, want string }{
		{"/", "/"},
		{"/a/b", "/a/b"},
		{"/a//b/", "/a/b"},
		{"/a/./b", "/a/b"},
		{"/a/../b", "/b"},
		{"/../..", "/"},
	}
	for _, c := range cases {
		got, err := cleanPath(c.in)
		if err != nil || got != c.want {
			t.Errorf("cleanPath(%q) = %q,%v want %q", c.in, got, err, c.want)
		}
	}
	if _, err := cleanPath("relative"); err == nil {
		t.Error("relative path should error")
	}
	if _, err := cleanPath(""); err == nil {
		t.Error("empty path should error")
	}
}

func TestNamespaceLifecycle(t *testing.T) {
	runClient(t, fastConfig(), func(p *des.Proc, c *Client) {
		if err := c.Mkdir(p, "/data"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := c.Mkdir(p, "/data"); !errors.Is(err, ErrExist) {
			t.Fatalf("duplicate mkdir err = %v, want ErrExist", err)
		}
		if err := c.Mkdir(p, "/nope/sub"); !errors.Is(err, ErrNotExist) {
			t.Fatalf("orphan mkdir err = %v, want ErrNotExist", err)
		}
		h, err := c.Create(p, "/data/f1", 0, 0)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		h.Close(p)
		fi, err := c.Stat(p, "/data/f1")
		if err != nil || fi.IsDir {
			t.Fatalf("stat: %+v %v", fi, err)
		}
		names, err := c.Readdir(p, "/data")
		if err != nil || len(names) != 1 {
			t.Fatalf("readdir = %v, %v", names, err)
		}
		if err := c.Rmdir(p, "/data"); !errors.Is(err, ErrNotEmpty) {
			t.Fatalf("rmdir non-empty err = %v", err)
		}
		if err := c.Unlink(p, "/data/f1"); err != nil {
			t.Fatalf("unlink: %v", err)
		}
		if err := c.Rmdir(p, "/data"); err != nil {
			t.Fatalf("rmdir: %v", err)
		}
		if _, err := c.Stat(p, "/data"); !errors.Is(err, ErrNotExist) {
			t.Fatalf("stat after rmdir err = %v", err)
		}
	})
}

// TestReaddirSorted: Readdir returns a directory's children in sorted
// order, the same on every run, whatever order they were created in.
func TestReaddirSorted(t *testing.T) {
	runClient(t, fastConfig(), func(p *des.Proc, c *Client) {
		if err := c.Mkdir(p, "/d"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		var want []string
		for _, i := range rand.New(rand.NewSource(1)).Perm(20) {
			path := fmt.Sprintf("/d/f%02d", i)
			want = append(want, path)
			h, err := c.Create(p, path, 1, 0)
			if err != nil {
				t.Fatalf("create %s: %v", path, err)
			}
			h.Close(p)
		}
		sort.Strings(want)
		for run := 0; run < 5; run++ {
			names, err := c.Readdir(p, "/d")
			if err != nil || !reflect.DeepEqual(names, want) {
				t.Fatalf("readdir #%d = %v, %v; want %v", run, names, err, want)
			}
		}
	})
}

func TestCreateOpenErrors(t *testing.T) {
	runClient(t, fastConfig(), func(p *des.Proc, c *Client) {
		if _, err := c.Open(p, "/missing"); !errors.Is(err, ErrNotExist) {
			t.Errorf("open missing = %v", err)
		}
		if _, err := c.Open(p, "/"); !errors.Is(err, ErrIsDir) {
			t.Errorf("open dir = %v", err)
		}
		h, err := c.Create(p, "/f", 0, 0)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		h.Close(p)
		if _, err := c.Create(p, "/f", 0, 0); !errors.Is(err, ErrExist) {
			t.Errorf("duplicate create = %v", err)
		}
		if err := c.Unlink(p, "/"); !errors.Is(err, ErrIsDir) {
			t.Errorf("unlink dir = %v", err)
		}
	})
}

func TestStripeChunks(t *testing.T) {
	l := Layout{StripeSize: 100, StripeCount: 4, OSTs: []int{0, 1, 2, 3}}
	// One full stripe row plus part of the next.
	chunks := stripeChunks(l, 50, 500)
	var total int64
	for _, ch := range chunks {
		total += ch.size
		if ch.size <= 0 || ch.size > 100 {
			t.Fatalf("bad chunk size %d", ch.size)
		}
	}
	if total != 500 {
		t.Fatalf("chunks cover %d bytes, want 500", total)
	}
	// First chunk: offset 50 in stripe 0 -> ostIdx 0, objOff 50, size 50.
	if chunks[0].ostIdx != 0 || chunks[0].objOff != 50 || chunks[0].size != 50 {
		t.Errorf("first chunk = %+v", chunks[0])
	}
	// Last chunk is [500,550): stripe 5 -> ostIdx 1, second row (objOff 100).
	last := chunks[len(chunks)-1]
	if last.ostIdx != 1 || last.objOff != 100 || last.size != 50 {
		t.Errorf("last chunk = %+v", last)
	}
}

// Property: stripeChunks covers the byte range exactly, in order, without
// overlap, for any layout and range.
func TestPropStripeChunksCoverage(t *testing.T) {
	f := func(ss uint16, sc uint8, off uint32, size uint32) bool {
		l := Layout{
			StripeSize:  int64(ss%4096) + 1,
			StripeCount: int(sc%8) + 1,
		}
		for i := 0; i < l.StripeCount; i++ {
			l.OSTs = append(l.OSTs, i)
		}
		o, s := int64(off%(1<<20)), int64(size%(1<<20))+1
		chunks := stripeChunks(l, o, s)
		cursor := o
		for _, ch := range chunks {
			if ch.fileOff != cursor {
				return false
			}
			if ch.size <= 0 || ch.size > l.StripeSize {
				return false
			}
			// Verify the stripe math: fileOff's stripe must map to ostIdx.
			stripe := ch.fileOff / l.StripeSize
			if int(stripe%int64(l.StripeCount)) != ch.ostIdx {
				return false
			}
			cursor += ch.size
		}
		return cursor == o+s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWriteReadUpdatesSizeAndOSTs(t *testing.T) {
	cfg := fastConfig()
	var fs *FS
	fs, _ = runClient(t, cfg, func(p *des.Proc, c *Client) {
		h, err := c.Create(p, "/f", 4, 1<<20)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		h.Write(p, 0, 8<<20) // 8 MB over 4 OSTs
		fi, err := c.Stat(p, "/f")
		if err != nil || fi.Size != 8<<20 {
			t.Fatalf("size = %d, want 8MB (%v)", fi.Size, err)
		}
		h.Read(p, 0, 8<<20)
		h.Close(p)
	})
	read, written := fs.TotalBytes()
	if written != 8<<20 || read != 8<<20 {
		t.Fatalf("OST bytes = r%d w%d, want 8MB each", read, written)
	}
	// Striping balance: each of the 4 used OSTs got 2 MB.
	busy := 0
	for _, st := range fs.OSTStats() {
		if st.BytesWritten > 0 {
			busy++
			if st.BytesWritten != 2<<20 {
				t.Errorf("OST %d wrote %d, want 2MB", st.ID, st.BytesWritten)
			}
		}
	}
	if busy != 4 {
		t.Fatalf("%d OSTs used, want 4", busy)
	}
}

func TestStripingSpeedsUpLargeIO(t *testing.T) {
	duration := func(stripes int) des.Time {
		cfg := fastConfig()
		var start, end des.Time
		runClient(t, cfg, func(p *des.Proc, c *Client) {
			h, _ := c.Create(p, "/f", stripes, 1<<20)
			start = p.Now()
			h.Write(p, 0, 64<<20)
			end = p.Now()
			h.Close(p)
		})
		return end - start
	}
	one, eight := duration(1), duration(8)
	if eight >= one {
		t.Fatalf("8-stripe write (%v) should beat 1-stripe (%v)", eight, one)
	}
	speedup := float64(one) / float64(eight)
	if speedup < 2 {
		t.Errorf("striping speedup = %.2fx, want >= 2x", speedup)
	}
}

func TestMDSContention(t *testing.T) {
	// Many clients hammering metadata: MDS with 1 thread vs 8 threads.
	makespan := func(threads int) des.Time {
		cfg := fastConfig()
		cfg.MDSThreads = threads
		e := des.NewEngine(7)
		fs := New(e, cfg)
		for i := 0; i < 16; i++ {
			c := fs.NewClient(clientName(i))
			e.Spawn("c", func(p *des.Proc) {
				for j := 0; j < 20; j++ {
					_, _ = c.Stat(p, "/")
				}
			})
		}
		return e.Run(des.MaxTime)
	}
	if m1, m8 := makespan(1), makespan(8); m8 >= m1 {
		t.Fatalf("8-thread MDS (%v) should beat 1-thread (%v)", m8, m1)
	}
}

func clientName(i int) string {
	return "client" + string(rune('A'+i))
}

func TestWriteBehindAbsorbsSmallWrites(t *testing.T) {
	// With write-behind, many small writes coalesce into fewer larger
	// device requests and finish sooner.
	run := func(wb int64) (des.Time, uint64) {
		cfg := fastConfig()
		cfg.ClientWriteBehind = wb
		var end des.Time
		fs, _ := runClient(t, cfg, func(p *des.Proc, c *Client) {
			h, _ := c.Create(p, "/f", 1, 1<<20)
			for i := int64(0); i < 256; i++ {
				h.Write(p, i*4096, 4096)
			}
			h.Close(p)
			end = p.Now()
		})
		var ops uint64
		for _, st := range fs.OSTStats() {
			ops += st.WriteOps
		}
		return end, ops
	}
	endNo, opsNo := run(0)
	endWB, opsWB := run(8 << 20)
	if opsWB >= opsNo {
		t.Fatalf("write-behind ops = %d, want < %d", opsWB, opsNo)
	}
	if endWB >= endNo {
		t.Fatalf("write-behind makespan %v, want < %v", endWB, endNo)
	}
	// All bytes must still land on the OSTs after Close.
	_, w := func() (int64, int64) {
		cfg := fastConfig()
		cfg.ClientWriteBehind = 8 << 20
		fs, _ := runClient(t, cfg, func(p *des.Proc, c *Client) {
			h, _ := c.Create(p, "/f", 1, 1<<20)
			for i := int64(0); i < 256; i++ {
				h.Write(p, i*4096, 4096)
			}
			h.Close(p)
		})
		return fs.TotalBytes()
	}()
	if w != 256*4096 {
		t.Fatalf("flushed bytes = %d, want %d", w, 256*4096)
	}
}

func TestIONodeTierRouting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OSTDevice = func() blockdev.Model { return blockdev.DefaultSSD() }
	cfg.NumIONodes = 2
	e := des.NewEngine(1)
	fs := New(e, cfg)
	c0 := fs.NewClient("c0")
	c1 := fs.NewClient("c1")
	c2 := fs.NewClient("c2")
	if c0.IONode() == "" || c1.IONode() == "" {
		t.Fatal("clients should be routed through I/O nodes")
	}
	if c0.IONode() == c1.IONode() {
		t.Error("round-robin should spread clients over I/O nodes")
	}
	if c0.IONode() != c2.IONode() {
		t.Error("round-robin should wrap")
	}
	e.Spawn("w", func(p *des.Proc) {
		h, err := c0.Create(p, "/f", 0, 0)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		h.Write(p, 0, 1<<20)
		h.Close(p)
	})
	e.Run(des.MaxTime)
	if e.LiveProcs() != 0 {
		t.Fatal("deadlock through I/O-node tier")
	}
	if _, w := fs.TotalBytes(); w != 1<<20 {
		t.Fatalf("bytes written through tier = %d", w)
	}
}

func TestMDSStatsCounting(t *testing.T) {
	fs, _ := runClient(t, fastConfig(), func(p *des.Proc, c *Client) {
		_ = c.Mkdir(p, "/d")
		h, _ := c.Create(p, "/d/f", 0, 0)
		h.Write(p, 0, 1024)
		h.Close(p)
		_, _ = c.Stat(p, "/d/f")
		_, _ = c.Stat(p, "/d/f")
	})
	st := fs.MDSStats()
	if st.Ops["mkdir"] != 1 || st.Ops["create"] != 1 || st.Ops["stat"] != 2 {
		t.Errorf("MDS ops = %v", st.Ops)
	}
	if st.Ops["setsize"] == 0 {
		t.Error("write should trigger a setsize op")
	}
	if st.TotalOps < 5 {
		t.Errorf("TotalOps = %d", st.TotalOps)
	}
}

func TestOpObserver(t *testing.T) {
	cfg := fastConfig()
	e := des.NewEngine(1)
	fs := New(e, cfg)
	var events []OpEvent
	fs.SetOpObserver(func(ev OpEvent) { events = append(events, ev) })
	c := fs.NewClient("c0")
	e.Spawn("w", func(p *des.Proc) {
		h, _ := c.Create(p, "/f", 0, 0)
		h.Write(p, 0, 4096)
		h.Read(p, 0, 4096)
		h.Close(p)
	})
	e.Run(des.MaxTime)
	var ops []string
	for _, ev := range events {
		ops = append(ops, ev.Op)
		if ev.End < ev.Start {
			t.Errorf("event %s end < start", ev.Op)
		}
	}
	want := []string{"create", "write", "read", "close"}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}
}

func TestHDDRandomVsSequentialReads(t *testing.T) {
	// On HDD OSTs, random small reads are much slower than one big
	// sequential read of the same volume — the §V-B premise.
	cfg := DefaultConfig()
	cfg.NumIONodes = 0
	total := int64(16 << 20)
	blk := int64(64 << 10)
	seqT := func() des.Time {
		var d des.Time
		runClient(t, cfg, func(p *des.Proc, c *Client) {
			h, _ := c.Create(p, "/f", 1, 1<<20)
			h.Write(p, 0, total)
			s := p.Now()
			h.Read(p, 0, total)
			d = p.Now() - s
			h.Close(p)
		})
		return d
	}()
	rndT := func() des.Time {
		var d des.Time
		runClient(t, cfg, func(p *des.Proc, c *Client) {
			h, _ := c.Create(p, "/f", 1, 1<<20)
			h.Write(p, 0, total)
			rng := p.Engine().RNG().Stream("rnd")
			s := p.Now()
			for i := int64(0); i < total/blk; i++ {
				off := rng.Int63n(total - blk)
				h.Read(p, off, blk)
			}
			d = p.Now() - s
			h.Close(p)
		})
		return d
	}()
	if rndT <= seqT {
		t.Fatalf("random reads (%v) should be slower than sequential (%v)", rndT, seqT)
	}
	if ratio := float64(rndT) / float64(seqT); ratio < 3 {
		t.Errorf("random/sequential = %.1fx, want >= 3x on HDD", ratio)
	}
}

func TestLayoutAllocationRoundRobin(t *testing.T) {
	cfg := fastConfig() // 8 OSTs
	e := des.NewEngine(1)
	fs := New(e, cfg)
	l1 := fs.allocateLayout(4, 1<<20)
	l2 := fs.allocateLayout(4, 1<<20)
	if l1.OSTs[0] == l2.OSTs[0] {
		t.Errorf("consecutive allocations start on same OST: %v %v", l1.OSTs, l2.OSTs)
	}
	l3 := fs.allocateLayout(100, 0) // clamped to NumOSTs
	if len(l3.OSTs) != fs.NumOSTs() {
		t.Errorf("stripe count not clamped: %d", len(l3.OSTs))
	}
	if l3.StripeSize != cfg.DefaultStripeSize {
		t.Errorf("stripe size default not applied")
	}
}

func TestFlatVsTieredNetworkPath(t *testing.T) {
	// The I/O-forwarding tier adds hops; same bytes, longer path.
	dur := func(ionodes int) des.Time {
		cfg := DefaultConfig()
		cfg.OSTDevice = func() blockdev.Model { return blockdev.DefaultSSD() }
		cfg.NumIONodes = ionodes
		var d des.Time
		runClient(t, cfg, func(p *des.Proc, c *Client) {
			h, _ := c.Create(p, "/f", 1, 1<<20)
			s := p.Now()
			h.Write(p, 0, 4<<20)
			d = p.Now() - s
			h.Close(p)
		})
		return d
	}
	if flat, tiered := dur(0), dur(2); tiered <= flat {
		t.Errorf("tiered path (%v) should cost more than flat (%v)", tiered, flat)
	}
}

func TestConfigDefaults(t *testing.T) {
	var zero Config
	c := zero.withDefaults()
	if c.NumOSS < 1 || c.OSTsPerOSS < 1 || c.MDSThreads < 1 ||
		c.DefaultStripeCount < 1 || c.DefaultStripeSize <= 0 || c.MaxRPCSize <= 0 {
		t.Errorf("withDefaults left invalid fields: %+v", c)
	}
	if c.OSTDevice == nil {
		t.Error("OSTDevice default missing")
	}
	if c.ComputeFabric.Name == "" || c.StorageFabric.Name == "" {
		t.Error("fabric defaults missing")
	}
	if (netsim.Config{}) == c.ComputeFabric {
		t.Error("compute fabric should be populated")
	}
}

func TestLeastLoadedLayoutReducesImbalance(t *testing.T) {
	// Skewed file sizes on stripe-count-1 files: round-robin assigns by
	// arrival order regardless of load; least-loaded steers new files to
	// cold OSTs.
	imbalance := func(policy LayoutPolicy) float64 {
		cfg := fastConfig()
		cfg.Layout = policy
		var fs *FS
		fs, _ = runClient(t, cfg, func(p *des.Proc, c *Client) {
			// File sizes skew: every 8th file is huge.
			for i := 0; i < 32; i++ {
				size := int64(256 << 10)
				if i%8 == 0 {
					size = 16 << 20
				}
				h, err := c.Create(p, fmt.Sprintf("/f%d", i), 1, 1<<20)
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				h.Write(p, 0, size)
				h.Close(p)
			}
		})
		var max, sum float64
		n := 0
		for _, st := range fs.OSTStats() {
			b := float64(st.BytesWritten)
			if b > max {
				max = b
			}
			sum += b
			n++
		}
		return max / (sum / float64(n))
	}
	rr, ll := imbalance(RoundRobin), imbalance(LeastLoaded)
	if ll >= rr {
		t.Fatalf("least-loaded imbalance %.2f should beat round-robin %.2f", ll, rr)
	}
}

func TestLayoutPolicyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || LeastLoaded.String() != "least-loaded" {
		t.Error("policy names")
	}
}
