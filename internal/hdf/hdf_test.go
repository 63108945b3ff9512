package hdf

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/mpi"
	"pioeval/internal/mpiio"
	"pioeval/internal/pfs"
	"pioeval/internal/posixio"
	"pioeval/internal/storage"
	"pioeval/internal/trace"
)

type harness struct {
	eng *des.Engine
	fs  *pfs.FS
	w   *mpi.World
	col *trace.Collector
	mf  *mpiio.File
	hf  *File
}

func newHarness(ranks int) *harness {
	e := des.NewEngine(23)
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	cfg.OSTDevice = func() blockdev.Model { return blockdev.DefaultSSD() }
	fs := pfs.New(e, cfg)
	w := mpi.NewWorld(e, ranks, mpi.DefaultOptions())
	col := trace.NewCollector()
	envs := make([]*posixio.Env, ranks)
	for i := range envs {
		envs[i] = posixio.NewEnv(storage.Direct(fs.NewClient(node(i))), i, col)
	}
	mf := mpiio.NewFile(w, envs, "/exp.h5", mpiio.Hints{CollNodes: 2}, col)
	return &harness{eng: e, fs: fs, w: w, col: col, mf: mf, hf: NewFile(mf, col)}
}

func node(i int) string { return "hn" + string(rune('0'+i)) }

func (h *harness) run(t *testing.T, fn func(r *mpi.Rank)) des.Time {
	t.Helper()
	h.w.Spawn(fn)
	end := h.eng.Run(des.MaxTime)
	if h.eng.LiveProcs() != 0 {
		t.Fatalf("deadlock: %d live procs", h.eng.LiveProcs())
	}
	return end
}

func TestCleanAndParentName(t *testing.T) {
	if cleanName("g1/") != "/g1" || cleanName("/") != "/" || cleanName("a/b") != "/a/b" {
		t.Error("cleanName broken")
	}
	if parentName("/a/b") != "/a" || parentName("/a") != "/" {
		t.Error("parentName broken")
	}
}

func TestContiguousSlabExtents(t *testing.T) {
	ds := &Dataset{dims: []int64{4, 6}, elemSize: 8, offset: 1000}
	// Rows 1..2, cols 2..4 of a 4x6 matrix.
	exts, err := ds.SlabExtents([]int64{1, 2}, []int64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []mpiio.Extent{
		{Off: 1000 + (1*6+2)*8, Size: 24},
		{Off: 1000 + (2*6+2)*8, Size: 24},
	}
	if !reflect.DeepEqual(exts, want) {
		t.Fatalf("extents = %v, want %v", exts, want)
	}
}

func TestSlabExtentsFullRowIsSingleRun(t *testing.T) {
	ds := &Dataset{dims: []int64{10}, elemSize: 4, offset: 0}
	exts, err := ds.SlabExtents([]int64{0}, []int64{10})
	if err != nil || len(exts) != 1 || exts[0].Size != 40 {
		t.Fatalf("exts = %v, %v", exts, err)
	}
}

func TestSlabBoundsChecking(t *testing.T) {
	ds := &Dataset{dims: []int64{4, 4}, elemSize: 1}
	if _, err := ds.SlabExtents([]int64{0}, []int64{1}); !errors.Is(err, ErrDimension) {
		t.Errorf("rank mismatch err = %v", err)
	}
	if _, err := ds.SlabExtents([]int64{3, 0}, []int64{2, 1}); !errors.Is(err, ErrBadSlab) {
		t.Errorf("oob err = %v", err)
	}
	if _, err := ds.SlabExtents([]int64{0, 0}, []int64{0, 1}); !errors.Is(err, ErrBadSlab) {
		t.Errorf("zero count err = %v", err)
	}
}

// Property: slab extents cover exactly count-product elements with no
// overlap.
func TestPropSlabCoverage(t *testing.T) {
	f := func(d0, d1, s0, s1, c0, c1 uint8) bool {
		dims := []int64{int64(d0%6) + 1, int64(d1%6) + 1}
		start := []int64{int64(s0) % dims[0], int64(s1) % dims[1]}
		count := []int64{
			int64(c0)%(dims[0]-start[0]) + 1,
			int64(c1)%(dims[1]-start[1]) + 1,
		}
		ds := &Dataset{dims: dims, elemSize: 1, offset: 0}
		exts, err := ds.SlabExtents(start, count)
		if err != nil {
			return false
		}
		seen := map[int64]bool{}
		var total int64
		for _, e := range exts {
			if e.Size <= 0 {
				return false
			}
			total += e.Size
			for b := e.Off; b < e.Off+e.Size; b++ {
				if seen[b] {
					return false
				}
				seen[b] = true
			}
		}
		return total == count[0]*count[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestEndToEndLayeredWrite(t *testing.T) {
	// The Figure-2 experiment in miniature: app -> HDF -> MPI-IO -> POSIX
	// -> PFS, with the trace showing records at every layer.
	h := newHarness(4)
	dims := []int64{4, 1024} // one row per rank
	h.run(t, func(r *mpi.Rank) {
		if err := h.hf.Create(r); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		ds, err := h.hf.CreateDataset(r, "/temps", dims, 8)
		if err != nil {
			t.Errorf("dataset: %v", err)
			return
		}
		if err := ds.WriteSlabAll(r, []int64{int64(r.ID()), 0}, []int64{1, 1024}); err != nil {
			t.Errorf("writeslab: %v", err)
		}
		if err := h.hf.Close(r); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	recs := h.col.Records()
	for _, layer := range []trace.Layer{trace.LayerHDF, trace.LayerMPIIO, trace.LayerPOSIX} {
		if len(trace.ByLayer(recs, layer)) == 0 {
			t.Errorf("no records at layer %v", layer)
		}
	}
	// All dataset bytes must reach the OSTs (4 rows x 1024 x 8B), plus
	// metadata (superblock + headers).
	_, written := h.fs.TotalBytes()
	if want := int64(4 * 1024 * 8); written < want {
		t.Errorf("OST bytes = %d, want >= %d", written, want)
	}
}

// TestGroupAndDatasetNamespace: datasets live in the root group, which
// exists, and a name is created once.
func TestGroupAndDatasetNamespace(t *testing.T) {
	h := newHarness(2)
	h.run(t, func(r *mpi.Rank) {
		_ = h.hf.Create(r)
		if _, err := h.hf.CreateDataset(r, "/", []int64{16}, 4); !errors.Is(err, ErrExist) && r.ID() == 0 {
			t.Errorf("root group as dataset err = %v", err)
		}
		ds, err := h.hf.CreateDataset(r, "d", []int64{16}, 4)
		if err != nil {
			t.Errorf("dataset: %v", err)
		}
		if ds != nil && ds.Name() != "/d" {
			t.Errorf("name = %q", ds.Name())
		}
		if _, err := h.hf.CreateDataset(r, "/d", []int64{16}, 4); !errors.Is(err, ErrExist) && r.ID() == 0 {
			t.Errorf("dup dataset err = %v", err)
		}
		if _, err := h.hf.CreateDataset(r, "/nope/d", []int64{16}, 4); !errors.Is(err, ErrNotExist) && r.ID() == 0 {
			t.Errorf("dataset outside the root group err = %v", err)
		}
		_ = h.hf.Close(r)
	})
	if len(h.hf.dsets) != 1 {
		t.Errorf("%d datasets, want 1", len(h.hf.dsets))
	}
}

func TestDatasetValidation(t *testing.T) {
	h := newHarness(1)
	h.run(t, func(r *mpi.Rank) {
		_ = h.hf.Create(r)
		if _, err := h.hf.CreateDataset(r, "/d", nil, 8); !errors.Is(err, ErrDimension) {
			t.Errorf("empty dims err = %v", err)
		}
		if _, err := h.hf.CreateDataset(r, "/d", []int64{4}, 0); !errors.Is(err, ErrDimension) {
			t.Errorf("zero elem err = %v", err)
		}
		if _, err := h.hf.CreateDataset(r, "/d", []int64{4, 0}, 8); !errors.Is(err, ErrDimension) {
			t.Errorf("zero dim err = %v", err)
		}
		_ = h.hf.Close(r)
	})
}

func TestIndependentVsCollectiveSlab(t *testing.T) {
	// Both paths must move the same bytes.
	bytesMoved := func(collective bool) int64 {
		h := newHarness(4)
		h.run(t, func(r *mpi.Rank) {
			_ = h.hf.Create(r)
			ds, _ := h.hf.CreateDataset(r, "/d", []int64{4, 256}, 8)
			var err error
			if collective {
				err = ds.WriteSlabAll(r, []int64{int64(r.ID()), 0}, []int64{1, 256})
			} else {
				err = ds.WriteSlab(r, []int64{int64(r.ID()), 0}, []int64{1, 256})
			}
			if err != nil {
				t.Errorf("write: %v", err)
			}
			_ = h.hf.Close(r)
		})
		_, w := h.fs.TotalBytes()
		return w
	}
	ind, coll := bytesMoved(false), bytesMoved(true)
	// Collective coalescing may write slightly more (hole absorption) but
	// both must cover the dataset payload.
	want := int64(4 * 256 * 8)
	if ind < want || coll < want {
		t.Fatalf("bytes: ind=%d coll=%d, want >= %d", ind, coll, want)
	}
}

func TestDatasetDims(t *testing.T) {
	ds := &Dataset{dims: []int64{3, 4}}
	d := ds.Dims()
	d[0] = 99 // must not alias internal state
	if ds.dims[0] != 3 {
		t.Error("Dims leaked internal slice")
	}
}
