package reduce

import (
	"errors"
	"math"
	"strings"
	"testing"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/pfs"
	"pioeval/internal/storage"
)

// recTarget is a zero-cost in-memory Target that records every data
// extent forwarded to it, so tests can inspect exactly what a stage
// emits below itself.
type recTarget struct {
	writes [][2]int64 // {off, size} in call order
	reads  [][2]int64
	sizes  map[string]int64 // path -> max physical end position
}

func newRecTarget() *recTarget { return &recTarget{sizes: map[string]int64{}} }

func (r *recTarget) Create(p *des.Proc, path string, sc int, ss int64) (storage.Handle, error) {
	return &recHandle{t: r, path: path}, nil
}
func (r *recTarget) Open(p *des.Proc, path string) (storage.Handle, error) {
	return &recHandle{t: r, path: path}, nil
}
func (r *recTarget) Stat(p *des.Proc, path string) (storage.FileInfo, error) {
	return storage.FileInfo{Path: path, Size: r.sizes[path]}, nil
}
func (r *recTarget) Mkdir(p *des.Proc, path string) error  { return nil }
func (r *recTarget) Rmdir(p *des.Proc, path string) error  { return nil }
func (r *recTarget) Unlink(p *des.Proc, path string) error { return nil }
func (r *recTarget) Readdir(p *des.Proc, path string) ([]string, error) {
	return nil, nil
}

type recHandle struct {
	t    *recTarget
	path string
}

func (h *recHandle) Path() string { return h.path }
func (h *recHandle) Write(p *des.Proc, off, size int64) error {
	h.t.writes = append(h.t.writes, [2]int64{off, size})
	if end := off + size; end > h.t.sizes[h.path] {
		h.t.sizes[h.path] = end
	}
	return nil
}
func (h *recHandle) Read(p *des.Proc, off, size int64) error {
	h.t.reads = append(h.t.reads, [2]int64{off, size})
	return nil
}
func (h *recHandle) Fsync(p *des.Proc) error { return nil }
func (h *recHandle) Close(p *des.Proc) error { return nil }

// drive runs fn as a single simulated process to completion.
func drive(t *testing.T, fn func(p *des.Proc)) {
	t.Helper()
	e := des.NewEngine(1)
	e.Spawn("test", fn)
	e.Run(des.MaxTime)
}

func TestPresetsAndLookup(t *testing.T) {
	want := []string{"deflate", "lz", "sz", "zfp"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v (sorted)", got, want)
		}
	}
	for _, n := range want {
		m, ok := Lookup(n)
		if !ok {
			t.Fatalf("Lookup(%q) missed", n)
		}
		if m.Name != n || m.Ratio < 1 || m.CompressMBps <= 0 || m.DecompressMBps <= 0 {
			t.Errorf("preset %q malformed: %+v", n, m)
		}
		if (n == "zfp" || n == "sz") != m.Lossy {
			t.Errorf("preset %q lossy = %v", n, m.Lossy)
		}
	}
	if _, err := New("brotli"); err == nil || !strings.Contains(err.Error(), "unknown compressor") {
		t.Errorf("New(brotli) = %v, want unknown-compressor error", err)
	}
}

func TestNewStageClampsModel(t *testing.T) {
	s := NewStage(Model{Name: "x", Ratio: 0.25, CompressMBps: -1, DecompressMBps: 0, RampBytes: -5})
	m := s.Model()
	if m.Ratio != 1 || m.CompressMBps != 1 || m.DecompressMBps != 1 || m.RampBytes != 0 {
		t.Fatalf("clamped model = %+v", m)
	}
}

// TestPhysExtentMonotoneContiguous: sequential logical chunks must map to
// exactly contiguous physical extents — no gaps and no overlaps — or the
// device model below would charge phantom seeks for a sequential stream.
func TestPhysExtentMonotoneContiguous(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		const chunk = 47008 // deliberately not a multiple of anything
		var nextPhys int64
		var logical, physical int64
		for i := int64(0); i < 64; i++ {
			lo, n := s.physExtent(i*chunk, chunk)
			if i == 0 && lo != 0 {
				t.Fatalf("%s: first extent starts at %d", name, lo)
			}
			if i > 0 && lo != nextPhys {
				t.Fatalf("%s: chunk %d starts at %d, previous ended at %d", name, i, lo, nextPhys)
			}
			if n < 1 {
				t.Fatalf("%s: chunk %d shrank to %d bytes", name, i, n)
			}
			nextPhys = lo + n
			logical += chunk
			physical += n
		}
		// The boundary map rounds up, so physical*ratio covers logical.
		if float64(physical)*s.ModelRatio() < float64(logical) {
			t.Errorf("%s: physical %d x ratio %.2f < logical %d", name, physical, s.ModelRatio(), logical)
		}
		// And the achieved ratio is within one rounding step of the model.
		if got := float64(logical) / float64(physical); math.Abs(got-s.ModelRatio()) > 0.02*s.ModelRatio() {
			t.Errorf("%s: achieved ratio %.4f, model %.4f", name, got, s.ModelRatio())
		}
	}
}

func TestZeroAndTinyTransfers(t *testing.T) {
	s, err := New("sz") // highest ratio: most aggressive shrink
	if err != nil {
		t.Fatal(err)
	}
	if _, n := s.physExtent(100, 0); n != 0 {
		t.Errorf("zero-size transfer forwarded %d bytes", n)
	}
	if _, n := s.physExtent(0, 1); n != 1 {
		t.Errorf("1-byte transfer forwarded %d bytes, want 1 (never vanish)", n)
	}
}

// TestStageAccounting drives writes and reads through the stage over a
// recording target and checks the logical/physical books and the
// CPU-time charges.
func TestStageAccounting(t *testing.T) {
	s, err := New("lz")
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecTarget()
	tgt := s.Wrap("cn0", rec)
	const chunk, nops = int64(1 << 20), 8
	var elapsed des.Time
	drive(t, func(p *des.Proc) {
		h, cerr := tgt.Create(p, "/f", 0, 0)
		if cerr != nil {
			t.Errorf("create: %v", cerr)
			return
		}
		start := p.Now()
		for i := int64(0); i < nops; i++ {
			if werr := h.Write(p, i*chunk, chunk); werr != nil {
				t.Errorf("write: %v", werr)
			}
		}
		for i := int64(0); i < nops/2; i++ {
			if rerr := h.Read(p, i*chunk, chunk); rerr != nil {
				t.Errorf("read: %v", rerr)
			}
		}
		elapsed = p.Now() - start
		_ = h.Close(p)
	})

	st := s.StageStats()
	if st.LogicalWritten != nops*chunk || st.WriteOps != nops {
		t.Fatalf("write books: %+v", st)
	}
	if st.LogicalRead != nops/2*chunk || st.ReadOps != nops/2 {
		t.Fatalf("read books: %+v", st)
	}
	var phys int64
	for _, w := range rec.writes {
		phys += w[1]
	}
	if phys != st.PhysicalWritten {
		t.Fatalf("stage says %d physical written, target received %d", st.PhysicalWritten, phys)
	}
	if r := st.Ratio(); math.Abs(r-s.ModelRatio()) > 0.02*s.ModelRatio() {
		t.Errorf("achieved ratio %.4f, model %.4f", r, s.ModelRatio())
	}
	// The recording target is free, so all elapsed time is codec CPU.
	if st.CompressSeconds <= 0 || st.DecompressSeconds <= 0 {
		t.Fatalf("no CPU charged: %+v", st)
	}
	if want := st.CompressSeconds + st.DecompressSeconds; math.Abs(elapsed.Seconds()-want) > 1e-6 {
		t.Errorf("elapsed %.6fs, codec books say %.6fs", elapsed.Seconds(), want)
	}
	m := s.Model()
	wantCompress := float64(nops) * float64(chunk+m.RampBytes) / (m.CompressMBps * 1e6)
	if math.Abs(st.CompressSeconds-wantCompress) > 0.01*wantCompress {
		t.Errorf("compress CPU %.6fs, model says %.6fs", st.CompressSeconds, wantCompress)
	}
}

// TestStatScalesToLogical: files written through the stage must stat at
// (at least) their logical size, so size-threshold scans above the stage
// — the io500 find predicate — keep working.
func TestStatScalesToLogical(t *testing.T) {
	s, err := New("deflate")
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecTarget()
	tgt := s.Wrap("cn0", rec)
	const logical = int64(3901) // mdtest-hard payload: small and odd
	drive(t, func(p *des.Proc) {
		h, cerr := tgt.Create(p, "/f", 0, 0)
		if cerr != nil {
			t.Errorf("create: %v", cerr)
			return
		}
		_ = h.Write(p, 0, logical)
		_ = h.Close(p)
		st, serr := tgt.Stat(p, "/f")
		if serr != nil {
			t.Errorf("stat: %v", serr)
			return
		}
		if st.Size < logical {
			t.Errorf("stat size %d < logical %d", st.Size, logical)
		}
		if st.Size > logical+int64(s.ModelRatio())+1 {
			t.Errorf("stat size %d overshoots logical %d by more than rounding", st.Size, logical)
		}
	})
}

func TestRatioOnEmptyStats(t *testing.T) {
	var st storage.StageStats
	if st.Ratio() != 1 {
		t.Fatalf("empty-stats ratio = %f, want 1", st.Ratio())
	}
}

// TestStageHandleClose: I/O on a closed stage handle fails with
// storage.ErrClosedHandle, and a second Close returns nil without
// releasing the handle again, so the next two opens get distinct handles.
// Under the quarantine tag the released handle is poisoned and never
// handed out again.
func TestStageHandleClose(t *testing.T) {
	s, err := New("lz")
	if err != nil {
		t.Fatal(err)
	}
	tgt := s.Wrap("cn0", newRecTarget()).(*target)
	drive(t, func(p *des.Proc) {
		h, cerr := tgt.Create(p, "/f", 0, 0)
		if cerr != nil {
			t.Fatalf("create: %v", cerr)
		}
		free := tgt.free.Len()
		if err := h.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := h.Write(p, 0, 1); !errors.Is(err, storage.ErrClosedHandle) {
			t.Errorf("write after close = %v", err)
		}
		if err := h.Read(p, 0, 1); !errors.Is(err, storage.ErrClosedHandle) {
			t.Errorf("read after close = %v", err)
		}
		if err := h.Fsync(p); !errors.Is(err, storage.ErrClosedHandle) {
			t.Errorf("fsync after close = %v", err)
		}
		if err := h.Close(p); err != nil {
			t.Errorf("second close = %v", err)
		}
		if des.Quarantine {
			if !h.(*handle).Recycled() {
				t.Error("a released handle was not poisoned")
			}
		} else if n := tgt.free.Len() - free; n != 1 {
			t.Errorf("two closes released the handle %d times, want 1", n)
		}
		a, _ := tgt.Open(p, "/f")
		b, _ := tgt.Open(p, "/f")
		if a == b {
			t.Error("two opens got one handle")
		}
		if des.Quarantine && (a == h || b == h) {
			t.Error("a released handle was handed out again")
		}
	})
	if st := s.StageStats(); st.WriteOps != 0 || st.ReadOps != 0 {
		t.Errorf("I/O on a closed handle reached the books: %+v", st)
	}
}

// TestStageOpenAllocs: a create/close and an open/close through the stage
// over TieredBB allocate nothing once warm: both layers recycle their
// handles at Close. The MDS is warmed past the inodes it allocates one by
// one, so the file a create makes comes from a chunk.
func TestStageOpenAllocs(t *testing.T) {
	for _, op := range []string{"create", "open"} {
		e := des.NewEngine(1)
		cfg := pfs.DefaultConfig()
		cfg.NumIONodes = 0
		cfg.OSTDevice = func() blockdev.Model { return blockdev.DefaultSSD() }
		fs := pfs.New(e, cfg)
		s, err := New("lz")
		if err != nil {
			t.Fatal(err)
		}
		tgt := s.Wrap("cn0", storage.NewTiered(fs.NewClient("cn0"), nil))
		kick := new(des.Signal)
		var opErr error
		stop := false
		e.Spawn("app", func(p *des.Proc) {
			cycle := func(path string, create bool) error {
				var h storage.Handle
				var err error
				if create {
					h, err = tgt.Create(p, path, 2, 1<<20)
				} else {
					h, err = tgt.Open(p, path)
				}
				if err == nil {
					err = h.Close(p)
				}
				if err != nil || !create || path == "/kept" {
					return err
				}
				return tgt.Unlink(p, path)
			}
			for i := 0; i < 256 && opErr == nil; i++ {
				opErr = cycle("/warm", true)
			}
			if opErr == nil {
				opErr = cycle("/kept", true)
			}
			for opErr == nil {
				kick.Wait(p)
				if stop {
					return
				}
				if op == "create" {
					opErr = cycle("/f", true)
				} else {
					opErr = cycle("/kept", false)
				}
			}
		})
		round := func() {
			kick.Fire()
			e.Run(des.MaxTime)
		}
		e.Run(des.MaxTime)
		round()
		n := testing.AllocsPerRun(50, round)
		stop = true
		round()
		if opErr != nil || e.LiveProcs() != 0 {
			t.Fatalf("%s: error %v, %d live procs", op, opErr, e.LiveProcs())
		}
		if n != 0 {
			t.Errorf("stage over tiered %s/close: %v allocations, want 0", op, n)
		}
	}
}
