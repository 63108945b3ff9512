// Package posixio exposes a POSIX-like file API (descriptors, open flags,
// positional and streaming reads/writes) on top of a pluggable storage
// target. It is the "POSIX I/O" layer of the paper's Figure 2: MPI-IO
// sits above it, a storage.Target (direct PFS, burst-buffer tier, or
// node-local scratch) below it, and tracers interpose here to capture
// POSIX-level records.
package posixio

import (
	"errors"

	"pioeval/internal/des"
	"pioeval/internal/storage"
	"pioeval/internal/trace"
)

// Open flags (subset of POSIX).
const (
	ORdonly = 0
	OWronly = 1 << iota
	ORdwr
	OCreate
	OExcl
	OAppend
)

// ErrBadFD is returned for operations on unknown descriptors.
var ErrBadFD = errors.New("posixio: bad file descriptor")

// Env is one simulated process's POSIX environment: a descriptor table
// bound to a storage target. Create one Env per rank.
type Env struct {
	target storage.Target
	rank   int
	col    *trace.Collector

	// StripeCount and StripeSize apply to files created through this Env
	// (0 selects file-system defaults).
	StripeCount int
	StripeSize  int64

	fds    map[int]*fdState
	nextFD int
	spare  *fdState // closed descriptors' state, reused by Open
}

type fdState struct {
	h      storage.Handle
	pos    int64
	append bool
	size   int64    // local size mirror for append/seek-end
	next   *fdState // the next spare, once closed
}

// NewEnv creates a POSIX environment for rank on target t, tracing into col
// (nil disables tracing).
func NewEnv(t storage.Target, rank int, col *trace.Collector) *Env {
	return &Env{target: t, rank: rank, col: col, fds: make(map[int]*fdState), nextFD: 3}
}

// Target returns the underlying storage target.
func (e *Env) Target() storage.Target { return e.target }

func (e *Env) emit(p *des.Proc, op, path string, off, size int64, start des.Time) {
	e.col.Emit(trace.Record{
		Rank: e.rank, Layer: trace.LayerPOSIX, Op: op, Path: path,
		Offset: off, Size: size, Start: start, End: p.Now(),
	})
}

// Open opens path with flags and returns a descriptor.
func (e *Env) Open(p *des.Proc, path string, flags int) (int, error) {
	start := p.Now()
	var h storage.Handle
	var err error
	var size int64
	if flags&OCreate != 0 {
		h, err = e.target.Create(p, path, e.StripeCount, e.StripeSize)
		if errors.Is(err, storage.ErrExist) && flags&OExcl == 0 {
			h, err = e.target.Open(p, path)
			if err == nil {
				if fi, serr := e.target.Stat(p, path); serr == nil {
					size = fi.Size
				}
			}
		}
	} else {
		h, err = e.target.Open(p, path)
		if err == nil {
			if fi, serr := e.target.Stat(p, path); serr == nil {
				size = fi.Size
			}
		}
	}
	e.emit(p, "open", path, 0, 0, start)
	if err != nil {
		return -1, err
	}
	st := e.spare
	if st != nil {
		e.spare = st.next
	} else {
		st = new(fdState)
	}
	*st = fdState{h: h, append: flags&OAppend != 0, size: size}
	if st.append {
		st.pos = size
	}
	fd := e.nextFD
	e.nextFD++
	e.fds[fd] = st
	return fd, nil
}

func (e *Env) fd(fd int) (*fdState, error) {
	st, ok := e.fds[fd]
	if !ok {
		return nil, ErrBadFD
	}
	return st, nil
}

// Write writes size bytes at the current position, advancing it.
func (e *Env) Write(p *des.Proc, fd int, size int64) (int64, error) {
	st, err := e.fd(fd)
	if err != nil {
		return 0, err
	}
	n, err := e.Pwrite(p, fd, st.pos, size)
	st.pos += n
	return n, err
}

// Pwrite writes size bytes at offset off without moving the position.
func (e *Env) Pwrite(p *des.Proc, fd int, off, size int64) (int64, error) {
	st, err := e.fd(fd)
	if err != nil {
		return 0, err
	}
	start := p.Now()
	werr := st.h.Write(p, off, size)
	if end := off + size; end > st.size {
		st.size = end
	}
	e.emit(p, "write", st.h.Path(), off, size, start)
	if werr != nil {
		return 0, werr
	}
	return size, nil
}

// Read reads size bytes at the current position, advancing it.
func (e *Env) Read(p *des.Proc, fd int, size int64) (int64, error) {
	st, err := e.fd(fd)
	if err != nil {
		return 0, err
	}
	n, err := e.Pread(p, fd, st.pos, size)
	st.pos += n
	return n, err
}

// Pread reads size bytes at offset off without moving the position.
func (e *Env) Pread(p *des.Proc, fd int, off, size int64) (int64, error) {
	st, err := e.fd(fd)
	if err != nil {
		return 0, err
	}
	start := p.Now()
	rerr := st.h.Read(p, off, size)
	e.emit(p, "read", st.h.Path(), off, size, start)
	if rerr != nil {
		// Degraded-mode reads deliver the reachable bytes; report the
		// short count alongside the error, like a POSIX partial read.
		var deg *storage.DegradedReadError
		if errors.As(rerr, &deg) {
			n := size - deg.Missing
			if n < 0 {
				n = 0
			}
			return n, rerr
		}
		return 0, rerr
	}
	return size, nil
}

// Fsync flushes buffered writes for fd.
func (e *Env) Fsync(p *des.Proc, fd int) error {
	st, err := e.fd(fd)
	if err != nil {
		return err
	}
	start := p.Now()
	serr := st.h.Fsync(p)
	e.emit(p, "fsync", st.h.Path(), 0, 0, start)
	return serr
}

// Close closes fd.
func (e *Env) Close(p *des.Proc, fd int) error {
	st, err := e.fd(fd)
	if err != nil {
		return err
	}
	start := p.Now()
	// A target may recycle the handle at Close, so read its path first.
	path := st.h.Path()
	cerr := st.h.Close(p)
	delete(e.fds, fd)
	e.emit(p, "close", path, 0, 0, start)
	// A spare must not keep the closed handle reachable.
	*st = fdState{next: e.spare}
	e.spare = st
	return cerr
}

// Stat returns file metadata.
func (e *Env) Stat(p *des.Proc, path string) (storage.FileInfo, error) {
	start := p.Now()
	fi, err := e.target.Stat(p, path)
	e.emit(p, "stat", path, 0, 0, start)
	return fi, err
}

// Mkdir creates a directory.
func (e *Env) Mkdir(p *des.Proc, path string) error {
	start := p.Now()
	err := e.target.Mkdir(p, path)
	e.emit(p, "mkdir", path, 0, 0, start)
	return err
}

// Rmdir removes an empty directory.
func (e *Env) Rmdir(p *des.Proc, path string) error {
	start := p.Now()
	err := e.target.Rmdir(p, path)
	e.emit(p, "rmdir", path, 0, 0, start)
	return err
}

// Unlink removes a file.
func (e *Env) Unlink(p *des.Proc, path string) error {
	start := p.Now()
	err := e.target.Unlink(p, path)
	e.emit(p, "unlink", path, 0, 0, start)
	return err
}

// Readdir lists directory entries.
func (e *Env) Readdir(p *des.Proc, path string) ([]string, error) {
	start := p.Now()
	names, err := e.target.Readdir(p, path)
	e.emit(p, "readdir", path, 0, int64(len(names)), start)
	return names, err
}
