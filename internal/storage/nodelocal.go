package storage

import (
	"fmt"
	gopath "path"
	"sort"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
)

// NodeLocal models node-local scratch storage: a block device directly
// attached to one compute node with a private in-memory namespace. There
// are no MDS round-trips and no network hops — metadata operations cost
// zero simulated time and data operations pay only local device service
// time. It is the "scratch SSD per node" configuration emerging HPC
// workloads (DL training caches, staging directories) lean on.
type NodeLocal struct {
	name  string
	dev   *blockdev.Device
	files map[string]*localNode
	// gen counts resets; a handle opened in an earlier generation is
	// stale.
	gen uint32

	bytesRead    int64
	bytesWritten int64
}

type localNode struct {
	isDir  bool
	size   int64
	layout Layout
}

// NewNodeLocal creates a scratch target for compute node name backed by
// the given device model.
func NewNodeLocal(e *des.Engine, name string, model blockdev.Model, queueDepth int) *NodeLocal {
	return &NodeLocal{
		name:  name,
		dev:   blockdev.NewDevice(e, "scratch."+name, model, queueDepth),
		files: map[string]*localNode{"/": {isDir: true}},
	}
}

// reset makes t what NewNodeLocal returns, on its engine once that has
// been reset: an idle device and an empty namespace. Handles opened
// before it are stale.
func (t *NodeLocal) reset() {
	t.dev.Reset()
	root := t.files["/"]
	clear(t.files)
	t.files["/"] = root
	*t = NodeLocal{name: t.name, dev: t.dev, files: t.files, gen: t.gen + 1}
}

// cleanLocal normalizes a path to the absolute, slash-rooted form the
// namespace map is keyed by.
func cleanLocal(p string) string {
	if p == "" {
		return "/"
	}
	if p[0] != '/' {
		p = "/" + p
	}
	return gopath.Clean(p)
}

// parent verifies the parent directory of path exists.
func (t *NodeLocal) parent(path string) error {
	dir := gopath.Dir(path)
	n, ok := t.files[dir]
	if !ok {
		return fmt.Errorf("scratch %s: %s: %w", t.name, dir, ErrNotExist)
	}
	if !n.isDir {
		return fmt.Errorf("scratch %s: %s: %w", t.name, dir, ErrNotDir)
	}
	return nil
}

// Create creates path in the local namespace (zero simulated cost) and
// returns an open handle. The stripe hints are recorded in the layout for
// Stat fidelity but carry no striping semantics on a single local device.
func (t *NodeLocal) Create(p *des.Proc, path string, stripeCount int, stripeSize int64) (Handle, error) {
	path = cleanLocal(path)
	if _, ok := t.files[path]; ok {
		return nil, fmt.Errorf("scratch %s: %s: %w", t.name, path, ErrExist)
	}
	if err := t.parent(path); err != nil {
		return nil, err
	}
	t.files[path] = &localNode{layout: Layout{StripeCount: stripeCount, StripeSize: stripeSize}}
	return &localHandle{t: t, path: path, gen: t.gen}, nil
}

// Open opens an existing local file.
func (t *NodeLocal) Open(p *des.Proc, path string) (Handle, error) {
	path = cleanLocal(path)
	n, ok := t.files[path]
	if !ok {
		return nil, fmt.Errorf("scratch %s: %s: %w", t.name, path, ErrNotExist)
	}
	if n.isDir {
		return nil, fmt.Errorf("scratch %s: %s: %w", t.name, path, ErrIsDir)
	}
	return &localHandle{t: t, path: path, gen: t.gen}, nil
}

// Stat returns local file metadata.
func (t *NodeLocal) Stat(p *des.Proc, path string) (FileInfo, error) {
	path = cleanLocal(path)
	n, ok := t.files[path]
	if !ok {
		return FileInfo{}, fmt.Errorf("scratch %s: %s: %w", t.name, path, ErrNotExist)
	}
	return FileInfo{Path: path, IsDir: n.isDir, Size: n.size, Layout: n.layout}, nil
}

// Mkdir creates a local directory.
func (t *NodeLocal) Mkdir(p *des.Proc, path string) error {
	path = cleanLocal(path)
	if _, ok := t.files[path]; ok {
		return fmt.Errorf("scratch %s: %s: %w", t.name, path, ErrExist)
	}
	if err := t.parent(path); err != nil {
		return err
	}
	t.files[path] = &localNode{isDir: true}
	return nil
}

// Rmdir removes an empty local directory.
func (t *NodeLocal) Rmdir(p *des.Proc, path string) error {
	path = cleanLocal(path)
	n, ok := t.files[path]
	if !ok {
		return fmt.Errorf("scratch %s: %s: %w", t.name, path, ErrNotExist)
	}
	if !n.isDir {
		return fmt.Errorf("scratch %s: %s: %w", t.name, path, ErrNotDir)
	}
	for child := range t.files {
		if child != path && gopath.Dir(child) == path {
			return fmt.Errorf("scratch %s: %s: %w", t.name, path, ErrNotEmpty)
		}
	}
	delete(t.files, path)
	return nil
}

// Unlink removes a local file.
func (t *NodeLocal) Unlink(p *des.Proc, path string) error {
	path = cleanLocal(path)
	n, ok := t.files[path]
	if !ok {
		return fmt.Errorf("scratch %s: %s: %w", t.name, path, ErrNotExist)
	}
	if n.isDir {
		return fmt.Errorf("scratch %s: %s: %w", t.name, path, ErrIsDir)
	}
	delete(t.files, path)
	return nil
}

// Readdir lists a local directory's entries as full paths in sorted order
// (map iteration order must never leak into simulation behavior).
func (t *NodeLocal) Readdir(p *des.Proc, path string) ([]string, error) {
	path = cleanLocal(path)
	n, ok := t.files[path]
	if !ok {
		return nil, fmt.Errorf("scratch %s: %s: %w", t.name, path, ErrNotExist)
	}
	if !n.isDir {
		return nil, fmt.Errorf("scratch %s: %s: %w", t.name, path, ErrNotDir)
	}
	var names []string
	for child := range t.files {
		if child != path && gopath.Dir(child) == path {
			names = append(names, child)
		}
	}
	sort.Strings(names)
	return names, nil
}

// LocalStats is a snapshot of one NodeLocal target's counters.
type LocalStats struct {
	Name         string
	BytesRead    int64
	BytesWritten int64
	Files        int
}

// Stats returns the target's counters.
func (t *NodeLocal) Stats() LocalStats {
	return LocalStats{
		Name: t.name, BytesRead: t.bytesRead, BytesWritten: t.bytesWritten,
		Files: len(t.files) - 1, // exclude the root
	}
}

// localHandle is an open file on a NodeLocal target. A handle opened
// before its target's last reset is stale: every operation on it fails
// with ErrStaleHandle.
type localHandle struct {
	t      *NodeLocal
	path   string
	gen    uint32
	closed bool
}

// Path returns the handle's path.
func (h *localHandle) Path() string { return h.path }

// check returns the error the I/O operation op on h fails with before it
// starts, if any.
func (h *localHandle) check(op string) error {
	switch {
	case h.gen != h.t.gen:
		return fmt.Errorf("%w: %s %s", ErrStaleHandle, op, h.path)
	case h.closed:
		return fmt.Errorf("%w: %s %s", ErrClosedHandle, op, h.path)
	}
	return nil
}

// Write pays local device write time and extends the file size.
func (h *localHandle) Write(p *des.Proc, off, size int64) error {
	if err := h.check("write"); err != nil {
		return err
	}
	if size <= 0 {
		return nil
	}
	h.t.dev.Access(p, blockdev.Request{Offset: off, Size: size, Write: true})
	h.t.bytesWritten += size
	if n := h.t.files[h.path]; n != nil && off+size > n.size {
		n.size = off + size
	}
	return nil
}

// Read pays local device read time.
func (h *localHandle) Read(p *des.Proc, off, size int64) error {
	if err := h.check("read"); err != nil {
		return err
	}
	if size <= 0 {
		return nil
	}
	h.t.dev.Access(p, blockdev.Request{Offset: off, Size: size})
	h.t.bytesRead += size
	return nil
}

// Fsync is free: this model writes through to the local device, so there
// is no write-back cache to flush.
func (h *localHandle) Fsync(p *des.Proc) error {
	if err := h.check("fsync"); err != nil {
		return err
	}
	return nil
}

// Close marks the handle closed; later I/O returns ErrClosedHandle.
func (h *localHandle) Close(p *des.Proc) error {
	if h.gen != h.t.gen {
		return fmt.Errorf("%w: close %s", ErrStaleHandle, h.path)
	}
	h.closed = true
	return nil
}
