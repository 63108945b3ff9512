// Package mpiio simulates an MPI-IO middleware layer (ROMIO-like) above the
// POSIX layer: independent and collective reads/writes, strided file views,
// two-phase collective buffering with configurable aggregators, and data
// sieving for independent strided access. It is the middleware tier of the
// paper's Figure 2 and the subject of the collective-I/O experiment (C8).
package mpiio

import (
	"fmt"
	"sort"

	"pioeval/internal/des"
	"pioeval/internal/mpi"
	"pioeval/internal/posixio"
	"pioeval/internal/trace"
)

// Hints mirror the ROMIO-style tunables.
type Hints struct {
	// CollNodes is the number of aggregator ranks for collective I/O
	// (cb_nodes). 0 selects max(1, P/4).
	CollNodes int
	// SieveHoleThreshold is the largest gap (bytes) that a collective
	// aggregator reads or writes through rather than splitting its access.
	SieveHoleThreshold int64
}

// withDefaults fills unset hint fields for a world of size p.
func (h Hints) withDefaults(p int) Hints {
	if h.CollNodes <= 0 {
		h.CollNodes = p / 4
		if h.CollNodes < 1 {
			h.CollNodes = 1
		}
	}
	if h.CollNodes > p {
		h.CollNodes = p
	}
	if h.SieveHoleThreshold <= 0 {
		h.SieveHoleThreshold = 64 << 10
	}
	return h
}

// Extent is a contiguous file byte range.
type Extent struct {
	Off  int64
	Size int64
}

// MergeExtents sorts and coalesces extents, merging ranges whose gap is at
// most maxGap (0 merges only touching/overlapping ranges).
func MergeExtents(exts []Extent, maxGap int64) []Extent {
	if len(exts) == 0 {
		return nil
	}
	sorted := make([]Extent, len(exts))
	copy(sorted, exts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Off < sorted[j].Off })
	out := []Extent{sorted[0]}
	for _, e := range sorted[1:] {
		last := &out[len(out)-1]
		if e.Off <= last.Off+last.Size+maxGap {
			if end := e.Off + e.Size; end > last.Off+last.Size {
				last.Size = end - last.Off
			}
		} else {
			out = append(out, e)
		}
	}
	return out
}

// View is an interleaved-block file view (the common MPI_Type_vector
// pattern): the file is an infinite sequence of blocks of BlockElems
// elements of ElemSize bytes; rank r of P owns blocks r, r+P, r+2P, ...
// from the start of the file.
type View struct {
	ElemSize   int64
	BlockElems int64
}

// contiguousView is the default view: rank-agnostic byte stream.
func contiguousView() View { return View{ElemSize: 1, BlockElems: 0} }

// Extents returns the file extents rank r (of p ranks) touches when
// accessing elems elements under the view.
func (v View) Extents(r, p int, elems int64) []Extent {
	if v.BlockElems <= 0 {
		// Contiguous view: a single run at offset 0 (caller supplies
		// offsets through At-style calls instead).
		return []Extent{{Size: elems * v.ElemSize}}
	}
	blockBytes := v.BlockElems * v.ElemSize
	var out []Extent
	remaining := elems
	for k := int64(0); remaining > 0; k++ {
		blockIdx := int64(r) + k*int64(p)
		n := v.BlockElems
		if n > remaining {
			n = remaining
		}
		out = append(out, Extent{Off: blockIdx * blockBytes, Size: n * v.ElemSize})
		remaining -= n
	}
	return out
}

// File is an MPI-IO file shared by all ranks of a world. Construct it once
// (outside the rank functions) with NewFile; each rank then calls Open and
// the I/O methods from its own process. Collective calls must be made by
// every rank in the same order, as in MPI.
type File struct {
	world *mpi.World
	path  string
	hints Hints
	col   *trace.Collector

	envs  []*posixio.Env
	fds   []int
	views []View

	// Collective-call rendezvous state.
	collReqs  [][]Extent
	collGen   int
	collCount int
	collSig   des.Signal
	doneCount int
	doneGen   int
	doneSig   des.Signal
}

// NewFile prepares an MPI-IO file over path. envs must hold one POSIX
// environment per rank. col may be nil.
func NewFile(w *mpi.World, envs []*posixio.Env, path string, hints Hints, col *trace.Collector) *File {
	if len(envs) != w.Size() {
		panic(fmt.Sprintf("mpiio: %d envs for %d ranks", len(envs), w.Size()))
	}
	f := &File{
		world: w, path: path, hints: hints.withDefaults(w.Size()), col: col,
		envs: envs, fds: make([]int, w.Size()), views: make([]View, w.Size()),
		collReqs: make([][]Extent, w.Size()),
	}
	for i := range f.views {
		f.views[i] = contiguousView()
	}
	return f
}

// Path returns the file path.
func (f *File) Path() string { return f.path }

func (f *File) emit(r *mpi.Rank, op string, off, size int64, start des.Time) {
	f.col.Emit(trace.Record{
		Rank: r.ID(), Layer: trace.LayerMPIIO, Op: op, Path: f.path,
		Offset: off, Size: size, Start: start, End: r.Now(),
	})
}

// Open opens the file collectively: rank 0 creates it, others open after
// the barrier.
func (f *File) Open(r *mpi.Rank) error {
	start := r.Now()
	var err error
	if r.ID() == 0 {
		f.fds[0], err = f.envs[0].Open(r.Proc(), f.path, posixio.OCreate)
	}
	r.Barrier()
	if r.ID() != 0 {
		f.fds[r.ID()], err = f.envs[r.ID()].Open(r.Proc(), f.path, posixio.ORdwr)
	}
	f.emit(r, "mpi_file_open", 0, 0, start)
	return err
}

// Close closes the file collectively.
func (f *File) Close(r *mpi.Rank) error {
	start := r.Now()
	err := f.envs[r.ID()].Close(r.Proc(), f.fds[r.ID()])
	r.Barrier()
	f.emit(r, "mpi_file_close", 0, 0, start)
	return err
}

// SetView installs an interleaved-block view for the calling rank.
// Collective in MPI; here each rank records its own view and synchronizes.
func (f *File) SetView(r *mpi.Rank, v View) {
	if v.ElemSize <= 0 {
		v.ElemSize = 1
	}
	f.views[r.ID()] = v
	r.Barrier()
}

// WriteAt writes size bytes at absolute offset off, independently.
func (f *File) WriteAt(r *mpi.Rank, off, size int64) error {
	start := r.Now()
	_, err := f.envs[r.ID()].Pwrite(r.Proc(), f.fds[r.ID()], off, size)
	f.emit(r, "mpi_file_write_at", off, size, start)
	return err
}

// WriteViewAll writes elems elements under the rank's view using two-phase
// collective buffering.
func (f *File) WriteViewAll(r *mpi.Rank, elems int64) error {
	exts := f.views[r.ID()].Extents(r.ID(), r.Size(), elems)
	return f.collective(r, exts, true)
}

// ReadViewAll reads elems elements under the rank's view collectively.
func (f *File) ReadViewAll(r *mpi.Rank, elems int64) error {
	exts := f.views[r.ID()].Extents(r.ID(), r.Size(), elems)
	return f.collective(r, exts, false)
}

// WriteExtentsAll collectively writes an arbitrary per-rank extent list
// (used by higher-level libraries such as the HDF layer for hyperslabs).
func (f *File) WriteExtentsAll(r *mpi.Rank, exts []Extent) error {
	return f.collective(r, exts, true)
}

// WriteExtents independently writes an extent list.
func (f *File) WriteExtents(r *mpi.Rank, exts []Extent) error {
	start := r.Now()
	env, fd := f.envs[r.ID()], f.fds[r.ID()]
	var total int64
	for _, e := range exts {
		if _, err := env.Pwrite(r.Proc(), fd, e.Off, e.Size); err != nil {
			return err
		}
		total += e.Size
	}
	if len(exts) > 0 {
		f.emit(r, "mpi_file_write", exts[0].Off, total, start)
	}
	return nil
}

// aggDomain splits [lo,hi) into n contiguous domains; returns domain i.
func aggDomain(lo, hi int64, n, i int) (int64, int64) {
	span := hi - lo
	step := span / int64(n)
	dLo := lo + int64(i)*step
	dHi := dLo + step
	if i == n-1 {
		dHi = hi
	}
	return dLo, dHi
}

// overlap returns the byte count of e within [lo,hi).
func overlap(e Extent, lo, hi int64) int64 {
	a, b := e.Off, e.Off+e.Size
	if a < lo {
		a = lo
	}
	if b > hi {
		b = hi
	}
	if b <= a {
		return 0
	}
	return b - a
}

// collective implements two-phase I/O. Every rank calls it with its own
// extent list.
func (f *File) collective(r *mpi.Rank, exts []Extent, write bool) error {
	start := r.Now()
	p := r.Size()
	// Phase 0: deposit requests, metadata allgather cost, rendezvous.
	f.collReqs[r.ID()] = exts
	r.Allgather(int64(len(exts)) * 16)
	f.rendezvous(r, &f.collCount, &f.collGen, &f.collSig)

	// All ranks now see all requests. Compute the global file domain.
	lo, hi := int64(1<<62), int64(-1)
	for _, re := range f.collReqs {
		for _, e := range re {
			if e.Size <= 0 {
				continue
			}
			if e.Off < lo {
				lo = e.Off
			}
			if end := e.Off + e.Size; end > hi {
				hi = end
			}
		}
	}
	if hi < 0 {
		// Nothing to do anywhere.
		f.rendezvous(r, &f.doneCount, &f.doneGen, &f.doneSig)
		return nil
	}
	nAgg := f.hints.CollNodes

	// Phase 1: data exchange. Each rank ships each aggregator the bytes of
	// its extents overlapping that aggregator's domain (for writes), or
	// the reverse (for reads). Aggregator ranks are 0..nAgg-1.
	myID := r.ID()
	isAgg := myID < nAgg

	if write {
		for a := 0; a < nAgg; a++ {
			dLo, dHi := aggDomain(lo, hi, nAgg, a)
			var n int64
			for _, e := range f.collReqs[myID] {
				n += overlap(e, dLo, dHi)
			}
			if n > 0 && a != myID {
				r.Send(a, collTag, n)
			}
		}
		if isAgg {
			dLo, dHi := aggDomain(lo, hi, nAgg, myID)
			for src := 0; src < p; src++ {
				if src == myID {
					continue
				}
				var n int64
				for _, e := range f.collReqs[src] {
					n += overlap(e, dLo, dHi)
				}
				if n > 0 {
					r.Recv(src, collTag)
				}
			}
			// Phase 2: aggregator writes the coalesced union of its domain.
			f.aggregatorIO(r, dLo, dHi, true)
		}
	} else {
		if isAgg {
			dLo, dHi := aggDomain(lo, hi, nAgg, myID)
			// Phase 1 (read): aggregator reads its domain union first.
			f.aggregatorIO(r, dLo, dHi, false)
			// Phase 2: scatter to requesting ranks.
			for dst := 0; dst < p; dst++ {
				if dst == myID {
					continue
				}
				var n int64
				for _, e := range f.collReqs[dst] {
					n += overlap(e, dLo, dHi)
				}
				if n > 0 {
					r.Send(dst, collTag, n)
				}
			}
		}
		for a := 0; a < nAgg; a++ {
			if a == myID {
				continue
			}
			dLo, dHi := aggDomain(lo, hi, nAgg, a)
			var n int64
			for _, e := range f.collReqs[myID] {
				n += overlap(e, dLo, dHi)
			}
			if n > 0 {
				r.Recv(a, collTag)
			}
		}
	}

	// Completion rendezvous before anyone reuses the request slots.
	f.rendezvous(r, &f.doneCount, &f.doneGen, &f.doneSig)
	op := "mpi_file_read_all"
	if write {
		op = "mpi_file_write_all"
	}
	var mine int64
	for _, e := range exts {
		mine += e.Size
	}
	var off0 int64
	if len(exts) > 0 {
		off0 = exts[0].Off
	}
	f.emit(r, op, off0, mine, start)
	return nil
}

const collTag = 0x7fff0001

// aggregatorIO performs the aggregator's file access: the coalesced union
// of all requested extents within [dLo, dHi).
func (f *File) aggregatorIO(r *mpi.Rank, dLo, dHi int64, write bool) {
	var within []Extent
	for _, re := range f.collReqs {
		for _, e := range re {
			n := overlap(e, dLo, dHi)
			if n <= 0 {
				continue
			}
			off := e.Off
			if off < dLo {
				off = dLo
			}
			within = append(within, Extent{Off: off, Size: n})
		}
	}
	// Coalesce aggressively: the collective buffer absorbs small holes.
	runs := MergeExtents(within, f.hints.SieveHoleThreshold)
	env, fd := f.envs[r.ID()], f.fds[r.ID()]
	for _, run := range runs {
		if write {
			_, _ = env.Pwrite(r.Proc(), fd, run.Off, run.Size)
		} else {
			_, _ = env.Pread(r.Proc(), fd, run.Off, run.Size)
		}
	}
}

// rendezvous is a reusable full-world barrier over shared deposit state.
func (f *File) rendezvous(r *mpi.Rank, count, gen *int, sig *des.Signal) {
	*count++
	if *count == r.Size() {
		*count = 0
		*gen++
		sig.Fire()
		return
	}
	g := *gen
	for *gen == g {
		sig.Wait(r.Proc())
	}
}
