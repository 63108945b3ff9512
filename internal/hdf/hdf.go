// Package hdf simulates an HDF5-like hierarchical data library on top of
// the MPI-IO layer: files hold N-dimensional datasets in their root group,
// datasets support hyperslab selection, and file and dataset creation
// produce the small metadata I/O that real HDF5 emits.
// It is the top library tier of the paper's Figure 2.
package hdf

import (
	"errors"
	"strings"

	"pioeval/internal/des"
	"pioeval/internal/mpi"
	"pioeval/internal/mpiio"
	"pioeval/internal/trace"
)

// Package errors.
var (
	ErrExist     = errors.New("hdf: object exists")
	ErrNotExist  = errors.New("hdf: object does not exist")
	ErrBadSlab   = errors.New("hdf: hyperslab out of bounds")
	ErrDimension = errors.New("hdf: dimension mismatch")
)

// headerRegion reserves file space for the superblock and object headers.
const (
	superblockSize   = 2048
	objectHeaderSize = 512
)

// File is an HDF container over one MPI-IO file, shared by all ranks.
// Construct it once with NewFile (outside the rank functions), then have
// every rank call Create collectively.
type File struct {
	mf  *mpiio.File
	col *trace.Collector

	dsets    map[string]*Dataset
	allocPtr int64
	headers  int64 // next object-header offset
}

// NewFile prepares an HDF container over mf. col may be nil.
func NewFile(mf *mpiio.File, col *trace.Collector) *File {
	return &File{
		mf: mf, col: col,
		dsets:    map[string]*Dataset{},
		allocPtr: superblockSize + 1024*objectHeaderSize,
		headers:  superblockSize,
	}
}

// Create collectively creates the HDF file. Every rank must call it; rank 0
// writes the superblock — the first metadata I/O of every HDF5 file.
func (f *File) Create(r *mpi.Rank) error {
	start := r.Now()
	if err := f.mf.Open(r); err != nil {
		return err
	}
	if r.ID() == 0 {
		if err := f.mf.WriteAt(r, 0, superblockSize); err != nil {
			return err
		}
	}
	r.Barrier()
	f.emit(r, "h5f_create", f.mf.Path(), 0, superblockSize, start)
	return nil
}

// Close collectively closes the file.
func (f *File) Close(r *mpi.Rank) error {
	start := r.Now()
	err := f.mf.Close(r)
	f.emit(r, "h5f_close", f.mf.Path(), 0, 0, start)
	return err
}

func (f *File) emit(r *mpi.Rank, op, path string, off, size int64, start des.Time) {
	f.col.Emit(trace.Record{
		Rank: r.ID(), Layer: trace.LayerHDF, Op: op, Path: path,
		Offset: off, Size: size, Start: start, End: r.Now(),
	})
}

// Dataset is an N-dimensional array stored in the file.
type Dataset struct {
	f        *File
	name     string
	dims     []int64
	elemSize int64
	offset   int64 // data region start
}

// CreateDataset collectively creates a dataset in the root group, laid
// out contiguously in row-major order.
func (f *File) CreateDataset(r *mpi.Rank, name string, dims []int64, elemSize int64) (*Dataset, error) {
	start := r.Now()
	name = cleanName(name)
	if len(dims) == 0 || elemSize <= 0 {
		return nil, ErrDimension
	}
	var err error
	if r.ID() == 0 {
		switch {
		case name == "/" || f.dsets[name] != nil:
			err = ErrExist
		case parentName(name) != "/":
			err = ErrNotExist
		default:
			total := elemSize
			for _, d := range dims {
				if d <= 0 {
					err = ErrDimension
				}
				total *= d
			}
			if err == nil {
				ds := &Dataset{
					f: f, name: name,
					dims: append([]int64(nil), dims...), elemSize: elemSize,
					offset: f.allocPtr,
				}
				f.allocPtr += total
				f.dsets[name] = ds
				hdr := f.headers
				f.headers += objectHeaderSize
				err = f.mf.WriteAt(r, hdr, objectHeaderSize)
			}
		}
	}
	r.Barrier()
	f.emit(r, "h5d_create", name, 0, 0, start)
	if err != nil {
		return nil, err
	}
	ds := f.dsets[name]
	if ds == nil {
		return nil, ErrNotExist
	}
	return ds, nil
}

// Name returns the dataset's path name.
func (ds *Dataset) Name() string { return ds.name }

// Dims returns the dataset dimensions.
func (ds *Dataset) Dims() []int64 { return append([]int64(nil), ds.dims...) }

// SlabExtents computes the file extents of hyperslab [start, start+count)
// in each dimension. Runs are contiguous along the last dimension.
func (ds *Dataset) SlabExtents(start, count []int64) ([]mpiio.Extent, error) {
	n := len(ds.dims)
	if len(start) != n || len(count) != n {
		return nil, ErrDimension
	}
	for i := range start {
		if start[i] < 0 || count[i] <= 0 || start[i]+count[i] > ds.dims[i] {
			return nil, ErrBadSlab
		}
	}
	var out []mpiio.Extent
	idx := make([]int64, n)
	copy(idx, start)
	// Iterate over every row (all dims but the last fixed), emitting the
	// run along the last dimension.
	for {
		ds.rowExtents(idx, start[n-1], count[n-1], &out)
		// Advance the prefix odometer.
		d := n - 2
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < start[d]+count[d] {
				break
			}
			idx[d] = start[d]
		}
		if d < 0 {
			break
		}
	}
	return out, nil
}

// rowExtents emits the extent of a single row run [lastStart,
// lastStart+lastCount) with the prefix coordinates fixed from idx.
func (ds *Dataset) rowExtents(idx []int64, lastStart, lastCount int64, out *[]mpiio.Extent) {
	n := len(ds.dims)
	lin := int64(0)
	for d := 0; d < n-1; d++ {
		lin = lin*ds.dims[d] + idx[d]
	}
	lin = lin*ds.dims[n-1] + lastStart
	*out = append(*out, mpiio.Extent{
		Off:  ds.offset + lin*ds.elemSize,
		Size: lastCount * ds.elemSize,
	})
}

// WriteSlab writes the hyperslab independently.
func (ds *Dataset) WriteSlab(r *mpi.Rank, start, count []int64) error {
	return ds.writeSlab(r, start, count, false)
}

// WriteSlabAll writes the hyperslab with collective I/O.
func (ds *Dataset) WriteSlabAll(r *mpi.Rank, start, count []int64) error {
	return ds.writeSlab(r, start, count, true)
}

func (ds *Dataset) writeSlab(r *mpi.Rank, start, count []int64, collective bool) error {
	t0 := r.Now()
	exts, err := ds.SlabExtents(start, count)
	if err != nil {
		return err
	}
	op := "h5d_write"
	if collective {
		op = "h5d_write_all"
		err = ds.f.mf.WriteExtentsAll(r, exts)
	} else {
		err = ds.f.mf.WriteExtents(r, exts)
	}
	var bytes int64
	for _, e := range exts {
		bytes += e.Size
	}
	ds.f.emit(r, op, ds.name, 0, bytes, t0)
	return err
}

func cleanName(name string) string {
	if !strings.HasPrefix(name, "/") {
		name = "/" + name
	}
	name = strings.TrimRight(name, "/")
	if name == "" {
		return "/"
	}
	return name
}

func parentName(name string) string {
	i := strings.LastIndexByte(name, '/')
	if i <= 0 {
		return "/"
	}
	return name[:i]
}
