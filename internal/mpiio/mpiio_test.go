package mpiio

import (
	"reflect"
	"testing"
	"testing/quick"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/mpi"
	"pioeval/internal/pfs"
	"pioeval/internal/posixio"
	"pioeval/internal/storage"
	"pioeval/internal/trace"
)

// harness builds an engine, FS, world, and per-rank POSIX envs.
type harness struct {
	eng  *des.Engine
	fs   *pfs.FS
	w    *mpi.World
	envs []*posixio.Env
	col  *trace.Collector
}

func newHarness(ranks int, dev func() blockdev.Model) *harness {
	e := des.NewEngine(17)
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	if dev != nil {
		cfg.OSTDevice = dev
	} else {
		cfg.OSTDevice = func() blockdev.Model { return blockdev.DefaultSSD() }
	}
	fs := pfs.New(e, cfg)
	w := mpi.NewWorld(e, ranks, mpi.DefaultOptions())
	col := trace.NewCollector()
	envs := make([]*posixio.Env, ranks)
	for i := range envs {
		envs[i] = posixio.NewEnv(storage.Direct(fs.NewClient(nodeName(i))), i, col)
	}
	return &harness{eng: e, fs: fs, w: w, envs: envs, col: col}
}

func nodeName(i int) string {
	return "cn" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func (h *harness) run(t *testing.T, fn func(r *mpi.Rank)) des.Time {
	t.Helper()
	h.w.Spawn(fn)
	end := h.eng.Run(des.MaxTime)
	if h.eng.LiveProcs() != 0 {
		t.Fatalf("deadlock: %d live procs", h.eng.LiveProcs())
	}
	return end
}

func TestMergeExtents(t *testing.T) {
	in := []Extent{{100, 50}, {0, 50}, {50, 50}, {300, 10}}
	got := MergeExtents(in, 0)
	want := []Extent{{0, 150}, {300, 10}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MergeExtents = %v, want %v", got, want)
	}
	// With a gap threshold the hole at 150..300 is absorbed.
	got = MergeExtents(in, 150)
	want = []Extent{{0, 310}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MergeExtents(gap) = %v, want %v", got, want)
	}
	if MergeExtents(nil, 0) != nil {
		t.Error("empty input should return nil")
	}
	// Overlapping extents collapse.
	got = MergeExtents([]Extent{{0, 100}, {50, 100}}, 0)
	want = []Extent{{0, 150}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("overlap merge = %v", got)
	}
}

// Property: MergeExtents output is sorted, non-adjacent (beyond gap), and
// covers exactly the union of input bytes when gap is 0.
func TestPropMergeExtents(t *testing.T) {
	f := func(raw []uint16) bool {
		var in []Extent
		for i := 0; i+1 < len(raw); i += 2 {
			in = append(in, Extent{Off: int64(raw[i]), Size: int64(raw[i+1]%100) + 1})
		}
		if len(in) == 0 {
			return true
		}
		out := MergeExtents(in, 0)
		// Sorted and disjoint.
		for i := 1; i < len(out); i++ {
			if out[i].Off <= out[i-1].Off+out[i-1].Size {
				return false
			}
		}
		// Union coverage check via bitmap.
		cover := map[int64]bool{}
		for _, e := range in {
			for b := e.Off; b < e.Off+e.Size; b++ {
				cover[b] = true
			}
		}
		var outBytes int64
		for _, e := range out {
			outBytes += e.Size
			for b := e.Off; b < e.Off+e.Size; b++ {
				if !cover[b] {
					return false
				}
			}
		}
		return outBytes == int64(len(cover))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestViewExtents(t *testing.T) {
	v := View{ElemSize: 8, BlockElems: 4}
	// Rank 1 of 4, 10 elems: blocks 1, 5, 9 → extents at 32, 160, 288.
	exts := v.Extents(1, 4, 10)
	want := []Extent{{32, 32}, {160, 32}, {288, 16}}
	if !reflect.DeepEqual(exts, want) {
		t.Fatalf("Extents = %v, want %v", exts, want)
	}
	// Contiguous view.
	cv := contiguousView()
	if got := cv.Extents(0, 4, 100); got[0].Size != 100 {
		t.Errorf("contiguous extents = %v", got)
	}
}

// Property: view extents across all ranks partition the element space with
// no overlap and full coverage.
func TestPropViewPartition(t *testing.T) {
	f := func(pRaw, blockRaw uint8, elemsRaw uint16) bool {
		p := int(pRaw%8) + 1
		v := View{ElemSize: 4, BlockElems: int64(blockRaw%16) + 1}
		elems := int64(elemsRaw%256) + 1
		seen := map[int64]int{}
		for r := 0; r < p; r++ {
			for _, e := range v.Extents(r, p, elems) {
				if e.Size%v.ElemSize != 0 || e.Off%v.ElemSize != 0 {
					return false
				}
				for b := e.Off; b < e.Off+e.Size; b += v.ElemSize {
					seen[b]++
					if seen[b] > 1 {
						return false // overlap between ranks
					}
				}
			}
		}
		return int64(len(seen)) == elems*int64(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHintsDefaults(t *testing.T) {
	h := Hints{}.withDefaults(16)
	if h.CollNodes != 4 {
		t.Errorf("CollNodes = %d, want 4", h.CollNodes)
	}
	if h.SieveHoleThreshold <= 0 {
		t.Error("SieveHoleThreshold default missing")
	}
	if got := (Hints{CollNodes: 99}).withDefaults(8); got.CollNodes != 8 {
		t.Errorf("CollNodes clamp = %d", got.CollNodes)
	}
	if got := (Hints{}).withDefaults(2); got.CollNodes != 1 {
		t.Errorf("small world CollNodes = %d", got.CollNodes)
	}
}

// TestIndependentWriteRead writes independently with WriteAt; the file
// has no independent read, so the bytes are read back collectively.
func TestIndependentWriteRead(t *testing.T) {
	h := newHarness(4, nil)
	f := NewFile(h.w, h.envs, "/shared", Hints{}, h.col)
	h.run(t, func(r *mpi.Rank) {
		if err := f.Open(r); err != nil {
			t.Errorf("open: %v", err)
			return
		}
		off := int64(r.ID()) * (1 << 20)
		if err := f.WriteAt(r, off, 1<<20); err != nil {
			t.Errorf("write: %v", err)
		}
		r.Barrier()
		f.SetView(r, View{ElemSize: 1 << 20, BlockElems: 1})
		if err := f.ReadViewAll(r, 1); err != nil {
			t.Errorf("read: %v", err)
		}
		if err := f.Close(r); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	read, written := h.fs.TotalBytes()
	if written != 4<<20 || read != 4<<20 {
		t.Fatalf("bytes = r%d w%d, want 4MB each", read, written)
	}
}

func TestCollectiveWriteMovesAllBytes(t *testing.T) {
	h := newHarness(8, nil)
	f := NewFile(h.w, h.envs, "/coll", Hints{CollNodes: 2}, h.col)
	v := View{ElemSize: 8, BlockElems: 16} // 128-byte blocks, interleaved
	elems := int64(1024)
	h.run(t, func(r *mpi.Rank) {
		if err := f.Open(r); err != nil {
			t.Errorf("open: %v", err)
			return
		}
		f.SetView(r, v)
		if err := f.WriteViewAll(r, elems); err != nil {
			t.Errorf("writeall: %v", err)
		}
		_ = f.Close(r)
	})
	_, written := h.fs.TotalBytes()
	want := elems * 8 * 8 // elems * elemsize * ranks
	if written != want {
		t.Fatalf("OST bytes written = %d, want %d", written, want)
	}
}

func TestCollectiveReadMovesAllBytes(t *testing.T) {
	h := newHarness(4, nil)
	f := NewFile(h.w, h.envs, "/coll", Hints{CollNodes: 2}, h.col)
	v := View{ElemSize: 4, BlockElems: 64}
	elems := int64(512)
	h.run(t, func(r *mpi.Rank) {
		_ = f.Open(r)
		f.SetView(r, v)
		_ = f.WriteViewAll(r, elems)
		r.Barrier()
		if err := f.ReadViewAll(r, elems); err != nil {
			t.Errorf("readall: %v", err)
		}
		_ = f.Close(r)
	})
	read, _ := h.fs.TotalBytes()
	// Aggregators read coalesced domains covering all requested bytes;
	// coalescing may round up over small holes but never down.
	want := elems * 4 * 4
	if read < want {
		t.Fatalf("OST bytes read = %d, want >= %d", read, want)
	}
}

func TestCollectiveBeatsIndependentOnStridedSmallBlocks(t *testing.T) {
	// The C8 experiment shape: fine-grained interleaved access on HDD
	// OSTs. Two-phase collective buffering should win clearly.
	hdd := func() blockdev.Model { return blockdev.DefaultHDD() }
	elems := int64(2048)
	v := View{ElemSize: 64, BlockElems: 1} // 64-byte interleaved pieces

	runMode := func(collective bool) des.Time {
		h := newHarness(8, hdd)
		f := NewFile(h.w, h.envs, "/f", Hints{CollNodes: 2}, h.col)
		return h.run(t, func(r *mpi.Rank) {
			_ = f.Open(r)
			f.SetView(r, v)
			if collective {
				_ = f.WriteViewAll(r, elems)
			} else {
				_ = f.WriteExtents(r, v.Extents(r.ID(), r.Size(), elems))
			}
			_ = f.Close(r)
		})
	}
	ind, coll := runMode(false), runMode(true)
	if coll >= ind {
		t.Fatalf("collective (%v) should beat independent (%v) on strided small blocks", coll, ind)
	}
	if speedup := float64(ind) / float64(coll); speedup < 2 {
		t.Errorf("collective speedup = %.1fx, want >= 2x", speedup)
	}
}

func TestCollectiveTraceEmitted(t *testing.T) {
	h := newHarness(4, nil)
	f := NewFile(h.w, h.envs, "/f", Hints{}, h.col)
	h.run(t, func(r *mpi.Rank) {
		_ = f.Open(r)
		_ = f.WriteExtentsAll(r, []Extent{{Off: int64(r.ID()) * 4096, Size: 4096}})
		_ = f.Close(r)
	})
	mpiioRecs := trace.ByLayer(h.col.Records(), trace.LayerMPIIO)
	writeAll := trace.Filter(mpiioRecs, func(r trace.Record) bool { return r.Op == "mpi_file_write_all" })
	if len(writeAll) != 4 {
		t.Errorf("expected 4 write_all records, got %d", len(writeAll))
	}
	// POSIX-layer records must exist beneath the MPI-IO ones (multi-level).
	if len(trace.ByLayer(h.col.Records(), trace.LayerPOSIX)) == 0 {
		t.Error("no POSIX records under collective I/O")
	}
}

func TestAggDomainPartition(t *testing.T) {
	lo, hi := int64(100), int64(1100)
	n := 3
	var covered int64
	prevHi := lo
	for i := 0; i < n; i++ {
		dLo, dHi := aggDomain(lo, hi, n, i)
		if dLo != prevHi {
			t.Fatalf("domain %d starts at %d, want %d", i, dLo, prevHi)
		}
		covered += dHi - dLo
		prevHi = dHi
	}
	if prevHi != hi || covered != hi-lo {
		t.Fatalf("domains cover %d..%d (%d bytes), want %d..%d", lo, prevHi, covered, lo, hi)
	}
}

func TestZeroSizeCollective(t *testing.T) {
	// Ranks collectively "write" nothing: must not deadlock or panic.
	h := newHarness(4, nil)
	f := NewFile(h.w, h.envs, "/f", Hints{}, h.col)
	h.run(t, func(r *mpi.Rank) {
		_ = f.Open(r)
		_ = f.WriteExtentsAll(r, []Extent{{Off: 0, Size: 0}})
		_ = f.Close(r)
	})
}

// Property: collective and independent view writes move exactly the same
// payload to the OSTs, for randomized view geometries and rank counts.
func TestPropCollectiveIndependentByteEquality(t *testing.T) {
	f := func(pRaw, blockRaw, elemRaw, elemsRaw uint8) bool {
		ranks := int(pRaw%6) + 2
		v := View{
			ElemSize:   int64(elemRaw%64) + 1,
			BlockElems: int64(blockRaw%8) + 1,
		}
		elems := int64(elemsRaw%64) + 1
		run := func(collective bool) int64 {
			h := newHarness(ranks, nil)
			f := NewFile(h.w, h.envs, "/prop", Hints{CollNodes: 2}, nil)
			h.w.Spawn(func(r *mpi.Rank) {
				_ = f.Open(r)
				f.SetView(r, v)
				if collective {
					_ = f.WriteViewAll(r, elems)
				} else {
					_ = f.WriteExtents(r, v.Extents(r.ID(), r.Size(), elems))
				}
				_ = f.Close(r)
			})
			h.eng.Run(des.MaxTime)
			if h.eng.LiveProcs() != 0 {
				t.Fatal("deadlock")
			}
			_, w := h.fs.TotalBytes()
			return w
		}
		want := elems * v.ElemSize * int64(ranks)
		ind := run(false)
		coll := run(true)
		if ind != want {
			return false
		}
		// Collective coalescing may absorb small holes (over-write) but
		// never drops payload.
		return coll >= want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
