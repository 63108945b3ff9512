package pfs

import (
	"fmt"
	"strconv"

	"pioeval/internal/des"
	"pioeval/internal/netsim"
)

// metaReqSize / metaRespSize are the wire sizes of metadata RPCs.
const (
	metaReqSize  = 256
	metaRespSize = 256
	dataReqSize  = 512 // read request / write ack header
)

// OpEvent describes one completed client operation; installed observers
// (tracers, profilers) receive every event.
type OpEvent struct {
	Client string
	Op     string
	Path   string
	Offset int64
	Size   int64
	Start  des.Time
	End    des.Time
}

// SetOpObserver installs fn to receive every client operation event.
// Pass nil to disable. Only one observer is supported; compose externally.
func (fs *FS) SetOpObserver(fn func(OpEvent)) { fs.observer = fn }

func (fs *FS) observe(ev OpEvent) {
	if fs.observer != nil {
		fs.observer(ev)
	}
}

// OSTEvent describes one payload arrival at (write) or departure from
// (read) an object storage target: the bytes that actually reached the
// backing device, after any client-side buffering, striping, RPC
// splitting, and fault handling. Failed or timed-out RPCs emit no event.
// The byte-conservation invariant checkers (internal/validate) compare
// these against the client-side OpEvent view.
type OSTEvent struct {
	OST   int
	Size  int64
	Write bool
	At    des.Time
}

// SetOSTObserver installs fn to receive every successful OST data access.
// Pass nil to disable. Only one observer is supported; compose externally.
func (fs *FS) SetOSTObserver(fn func(OSTEvent)) { fs.ostObserver = fn }

// Client is a compute-node-resident file-system client. Each client is
// bound to a compute-fabric node and routed through one I/O node.
type Client struct {
	fs *FS

	// Fabric handles: the client's compute node, and its I/O node on the
	// compute and the storage fabric (both nil in flat-network mode).
	node       *netsim.Node
	ionC, ionS *netsim.Node

	// Write-behind buffer state (shared across the client's handles).
	wbCapacity int64
	wbDirty    int64

	// Client-side counters (the "client-side hardware statistics" of
	// §IV-A2): RPC counts and wire bytes as the compute node sees them.
	stats ClientStats
}

// ClientStats captures the client-side view of I/O traffic and of the
// resilience policy's work: attempts beyond the first (Retries), attempts
// abandoned on timeout (TimedOutRPCs), RPCs that exhausted their retry
// budget (FailedRPCs), and reads completed in degraded mode with the
// bytes they could not deliver.
type ClientStats struct {
	MetaRPCs  uint64
	ReadRPCs  uint64
	WriteRPCs uint64
	BytesSent int64 // payload leaving the client NIC
	BytesRecv int64 // payload arriving at the client NIC

	Retries       uint64
	TimedOutRPCs  uint64
	FailedRPCs    uint64
	DegradedReads uint64
	BytesMissing  int64
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats { return c.stats }

// NewClient registers a new client on compute node nodeName.
func (fs *FS) NewClient(nodeName string) *Client {
	return fs.newClientOn(fs.compute.AddNode(nodeName))
}

// NewClientAt registers a client on compute node nodeName, creating the
// node on first use and sharing it afterwards: clients on the same node
// contend for the same NIC injection/ejection links, the way multiple
// ranks per compute node do on a real machine. Scale runs use this to
// keep per-rank fabric state sublinear in rank count.
func (fs *FS) NewClientAt(nodeName string) *Client {
	n, ok := fs.compute.Node(nodeName)
	if !ok {
		n = fs.compute.AddNode(nodeName)
	}
	return fs.newClientOn(n)
}

func (fs *FS) newClientOn(n *netsim.Node) *Client {
	c := &Client{fs: fs, node: n, wbCapacity: fs.cfg.ClientWriteBehind}
	if len(fs.ionodes) > 0 {
		ion := fs.ionodes[fs.nextION%len(fs.ionodes)]
		c.ionC, c.ionS = ion.c, ion.s
		fs.nextION++
	}
	fs.clientList = append(fs.clientList, c)
	return c
}

// Node returns the client's compute-fabric node name.
func (c *Client) Node() string { return c.node.Name() }

// IONode returns the I/O node this client routes through ("" in flat mode).
func (c *Client) IONode() string {
	if c.ionC == nil {
		return ""
	}
	return c.ionC.Name()
}

// toServer moves size bytes from the client to a server node, crossing the
// I/O-forwarding tier when present.
func (c *Client) toServer(p *des.Proc, server *netsim.Node, size int64) {
	if c.ionC != nil {
		c.fs.compute.Transfer(p, c.node, c.ionC, size)
		c.fs.storage.Transfer(p, c.ionS, server, size)
	} else {
		c.fs.compute.Transfer(p, c.node, server, size)
	}
}

// fromServer moves size bytes from a server node back to the client.
func (c *Client) fromServer(p *des.Proc, server *netsim.Node, size int64) {
	if c.ionC != nil {
		c.fs.storage.Transfer(p, server, c.ionS, size)
		c.fs.compute.Transfer(p, c.ionC, c.node, size)
	} else {
		c.fs.compute.Transfer(p, server, c.node, size)
	}
}

// metaRPC performs one metadata operation round trip under the resilience
// policy: an unavailable MDS leaves the request unanswered, the client
// times out and retries with exponential backoff until the policy's
// budget is exhausted. Namespace errors (ErrExist, ...) are final and
// never retried — the operation did run, it just failed.
func (c *Client) metaRPC(p *des.Proc, op MetaOp, fn func() error) error {
	pol := c.fs.cfg.Resilience
	for attempt := 0; ; attempt++ {
		c.stats.MetaRPCs++
		c.stats.BytesSent += metaReqSize
		c.toServer(p, c.fs.mds.node, metaReqSize)
		var err error
		if c.fs.mds.down {
			// No response: the RPC dies on the simulated timeout.
			if pol.RPCTimeout > 0 {
				p.Wait(pol.RPCTimeout)
			}
			c.stats.TimedOutRPCs++
			err = ErrMDSUnavailable
		} else {
			err = c.fs.mdsExec(p, op, fn)
			c.stats.BytesRecv += metaRespSize
			c.fromServer(p, c.fs.mds.node, metaRespSize)
		}
		if err == nil || !retryable(err) {
			return err
		}
		if attempt >= pol.MaxRetries {
			c.stats.FailedRPCs++
			return err
		}
		c.stats.Retries++
		p.Wait(pol.backoff(c.fs.eng, attempt))
	}
}

// Mkdir creates a directory.
func (c *Client) Mkdir(p *des.Proc, path string) error {
	path, perr := cleanPath(path)
	if perr != nil {
		return perr
	}
	start := p.Now()
	err := c.metaRPC(p, OpMkdir, func() error {
		ino := c.fs.mds.inodes
		if _, dup := ino[path]; dup {
			return ErrExist
		}
		par, ok := ino[parentOf(path)]
		if !ok {
			return ErrNotExist
		}
		if !par.isDir {
			return ErrNotDir
		}
		ino[path] = &inode{path: path, isDir: true, children: map[string]bool{}, ctime: p.Now(), mtime: p.Now()}
		par.children[path] = true
		return nil
	})
	c.fs.observe(OpEvent{Client: c.node.Name(), Op: "mkdir", Path: path, Start: start, End: p.Now()})
	return err
}

// Rmdir removes an empty directory.
func (c *Client) Rmdir(p *des.Proc, path string) error {
	path, perr := cleanPath(path)
	if perr != nil {
		return perr
	}
	start := p.Now()
	err := c.metaRPC(p, OpRmdir, func() error {
		ino := c.fs.mds.inodes
		n, ok := ino[path]
		if !ok {
			return ErrNotExist
		}
		if !n.isDir {
			return ErrNotDir
		}
		if len(n.children) > 0 {
			return ErrNotEmpty
		}
		if path == "/" {
			return ErrNotEmpty
		}
		delete(ino, path)
		delete(ino[parentOf(path)].children, path)
		return nil
	})
	c.fs.observe(OpEvent{Client: c.node.Name(), Op: "rmdir", Path: path, Start: start, End: p.Now()})
	return err
}

// Stat returns file metadata.
func (c *Client) Stat(p *des.Proc, path string) (FileInfo, error) {
	path, perr := cleanPath(path)
	if perr != nil {
		return FileInfo{}, perr
	}
	start := p.Now()
	var fi FileInfo
	err := c.metaRPC(p, OpStat, func() error {
		n, ok := c.fs.mds.inodes[path]
		if !ok {
			return ErrNotExist
		}
		fi = FileInfo{Path: n.path, IsDir: n.isDir, Size: n.size, Layout: n.layout, CTime: n.ctime, MTime: n.mtime}
		return nil
	})
	c.fs.observe(OpEvent{Client: c.node.Name(), Op: "stat", Path: path, Start: start, End: p.Now()})
	return fi, err
}

// Readdir lists the names in a directory.
func (c *Client) Readdir(p *des.Proc, path string) ([]string, error) {
	path, perr := cleanPath(path)
	if perr != nil {
		return nil, perr
	}
	start := p.Now()
	var names []string
	err := c.metaRPC(p, OpReaddir, func() error {
		n, ok := c.fs.mds.inodes[path]
		if !ok {
			return ErrNotExist
		}
		if !n.isDir {
			return ErrNotDir
		}
		for child := range n.children {
			names = append(names, child)
		}
		return nil
	})
	if err == nil && len(names) > 0 {
		// Pay for the directory payload: ~64 bytes per entry.
		c.fromServer(p, c.fs.mds.node, int64(len(names))*64)
	}
	c.fs.observe(OpEvent{Client: c.node.Name(), Op: "readdir", Path: path, Size: int64(len(names)), Start: start, End: p.Now()})
	return names, err
}

// Unlink removes a file.
func (c *Client) Unlink(p *des.Proc, path string) error {
	path, perr := cleanPath(path)
	if perr != nil {
		return perr
	}
	start := p.Now()
	err := c.metaRPC(p, OpUnlink, func() error {
		ino := c.fs.mds.inodes
		n, ok := ino[path]
		if !ok {
			return ErrNotExist
		}
		if n.isDir {
			return ErrIsDir
		}
		delete(ino, path)
		delete(ino[parentOf(path)].children, path)
		return nil
	})
	c.fs.observe(OpEvent{Client: c.node.Name(), Op: "unlink", Path: path, Start: start, End: p.Now()})
	return err
}

// Handle is an open file.
type Handle struct {
	c      *Client
	path   string
	layout Layout
	closed bool

	// write-behind dirty extents, coalesced on append
	dirty []extent

	// readahead window already fetched from the servers
	raStart, raEnd int64
	raValid        bool
}

type extent struct{ off, size int64 }

// Create makes a new file with the given striping (0 values select the
// file-system defaults) and returns an open handle.
func (c *Client) Create(p *des.Proc, path string, stripeCount int, stripeSize int64) (*Handle, error) {
	path, perr := cleanPath(path)
	if perr != nil {
		return nil, perr
	}
	start := p.Now()
	var layout Layout
	err := c.metaRPC(p, OpCreate, func() (err error) {
		layout, err = c.fs.createNS(path, stripeCount, stripeSize)
		return err
	})
	c.fs.observe(OpEvent{Client: c.node.Name(), Op: "create", Path: path, Start: start, End: p.Now()})
	if err != nil {
		return nil, err
	}
	return &Handle{c: c, path: path, layout: layout}, nil
}

// Open opens an existing file.
func (c *Client) Open(p *des.Proc, path string) (*Handle, error) {
	path, perr := cleanPath(path)
	if perr != nil {
		return nil, perr
	}
	start := p.Now()
	var layout Layout
	err := c.metaRPC(p, OpOpen, func() (err error) {
		layout, err = c.fs.openNS(path)
		return err
	})
	c.fs.observe(OpEvent{Client: c.node.Name(), Op: "open", Path: path, Start: start, End: p.Now()})
	if err != nil {
		return nil, err
	}
	return &Handle{c: c, path: path, layout: layout}, nil
}

// createNS is the MDS-side body of a create: it checks the namespace,
// allocates the new file's layout, and links the inode. Both execution
// forms run it through their metadata RPC.
func (fs *FS) createNS(path string, stripeCount int, stripeSize int64) (Layout, error) {
	ino := fs.mds.inodes
	if _, dup := ino[path]; dup {
		return Layout{}, ErrExist
	}
	par, ok := ino[parentOf(path)]
	if !ok {
		return Layout{}, ErrNotExist
	}
	if !par.isDir {
		return Layout{}, ErrNotDir
	}
	layout := fs.allocateLayout(stripeCount, stripeSize)
	now := fs.eng.Now()
	ino[path] = &inode{path: path, layout: layout, ctime: now, mtime: now}
	par.children[path] = true
	return layout, nil
}

// openNS is the MDS-side body of an open: it resolves path to a regular
// file and returns its layout.
func (fs *FS) openNS(path string) (Layout, error) {
	n, ok := fs.mds.inodes[path]
	if !ok {
		return Layout{}, ErrNotExist
	}
	if n.isDir {
		return Layout{}, ErrIsDir
	}
	return n.layout, nil
}

// setSizeNS is the MDS-side body of a size update: grow the inode to end
// and touch its mtime.
func (fs *FS) setSizeNS(path string, end int64) error {
	n, ok := fs.mds.inodes[path]
	if !ok {
		return ErrNotExist
	}
	if end > n.size {
		n.size = end
	}
	n.mtime = fs.eng.Now()
	return nil
}

// Path returns the file path.
func (h *Handle) Path() string { return h.path }

// Layout returns the file's stripe layout.
func (h *Handle) Layout() Layout { return h.layout }

// chunk is one OST-directed piece of a striped request.
type chunk struct {
	ostIdx  int   // index into layout.OSTs
	objOff  int64 // offset within the object
	size    int64
	fileOff int64
}

// objKey names one object of a striped file: the file's stripe on
// layout slot idx. It keys the OSTs' object maps and is formatted, as
// "path#idx", only for error text.
type objKey struct {
	path string
	idx  int
}

func (k objKey) String() string { return k.path + "#" + strconv.Itoa(k.idx) }

// stripeChunks splits a byte range [off, off+size) over the layout into a
// slice sized for exactly the stripes the range touches.
func stripeChunks(l Layout, off, size int64) []chunk {
	if size <= 0 {
		return nil
	}
	n := (off+size-1)/l.StripeSize - off/l.StripeSize + 1
	return appendStripeChunks(make([]chunk, 0, n), l, off, size)
}

// appendStripeChunks appends the chunks of [off, off+size) over the layout
// to out.
func appendStripeChunks(out []chunk, l Layout, off, size int64) []chunk {
	for size > 0 {
		stripe := off / l.StripeSize
		within := off % l.StripeSize
		n := l.StripeSize - within
		if n > size {
			n = size
		}
		ostIdx := int(stripe % int64(l.StripeCount))
		objOff := (stripe/int64(l.StripeCount))*l.StripeSize + within
		out = append(out, chunk{ostIdx: ostIdx, objOff: objOff, size: n, fileOff: off})
		off += n
		size -= n
	}
	return out
}

// splitRPCs appends chunks to rpcs, split into pieces of at most
// MaxRPCSize, in launch order.
func (fs *FS) splitRPCs(rpcs, chunks []chunk) []chunk {
	for _, ch := range chunks {
		for ch.size > 0 {
			n := ch.size
			if n > fs.cfg.MaxRPCSize {
				n = fs.cfg.MaxRPCSize
			}
			rpc := ch
			rpc.size = n
			rpcs = append(rpcs, rpc)
			ch.objOff += n
			ch.size -= n
		}
	}
	return rpcs
}

// settleIO aggregates the per-RPC outcomes of one request: nil when every
// RPC succeeded, else the first (launch-order) error. For reads under a
// DegradedReads policy the miss is reported as a *DegradedReadError with
// partial-data accounting.
func (h *Handle) settleIO(rpcs []chunk, errs []error, write bool) error {
	var firstErr error
	var requested, missing int64
	for i, err := range errs {
		requested += rpcs[i].size
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			missing += rpcs[i].size
		}
	}
	if firstErr == nil {
		return nil
	}
	if !write && h.c.fs.cfg.Resilience.DegradedReads {
		h.c.stats.DegradedReads++
		h.c.stats.BytesMissing += missing
		return &DegradedReadError{Path: h.path, Requested: requested, Missing: missing, Cause: firstErr}
	}
	return firstErr
}

// doIO executes the chunks of one request in parallel across OSTs,
// splitting chunks larger than MaxRPCSize, and blocks until all complete;
// the outcome is aggregated by settleIO. The RPCs are the continuation
// form's pooled rpcCalls, launched from a borrowed ioCall and joined with
// a single park on its WaitGroup, so no RPC costs a goroutine.
func (h *Handle) doIO(p *des.Proc, chunks []chunk, write bool) error {
	fs := h.c.fs
	io := fs.getIO()
	io.h = h
	io.launch(chunks, write)
	io.wg.Wait(p)
	err := h.settleIO(io.rpcs, io.errs, write)
	clear(io.errs)
	io.h = nil
	fs.ioFree.put(io)
	return err
}

// updateSize grows the file size at the MDS (a size RPC, as Lustre clients
// batch; modeled as one metadata op).
func (h *Handle) updateSize(p *des.Proc, end int64) error {
	return h.c.metaRPC(p, OpSetSize, func() error { return h.c.fs.setSizeNS(h.path, end) })
}

// Write writes size bytes at offset off, blocking in simulated time. With
// write-behind enabled, data may be buffered and flushed later; errors
// from a deferred flush surface on the Write, Fsync, or Close that
// triggers it. A closed handle returns ErrClosedHandle.
func (h *Handle) Write(p *des.Proc, off, size int64) error {
	if h.closed {
		return fmt.Errorf("%w: write %s", ErrClosedHandle, h.path)
	}
	if size <= 0 {
		return nil
	}
	start := p.Now()
	h.raValid = false // writes invalidate the readahead window
	var err error
	if h.c.wbCapacity > 0 {
		h.appendDirty(off, size)
		h.c.wbDirty += size
		if h.c.wbDirty >= h.c.wbCapacity {
			err = h.flush(p)
		}
	} else {
		err = h.doIO(p, stripeChunks(h.layout, off, size), true)
		if err == nil {
			err = h.updateSize(p, off+size)
		}
	}
	h.c.fs.observe(OpEvent{Client: h.c.node.Name(), Op: "write", Path: h.path, Offset: off, Size: size, Start: start, End: p.Now()})
	return err
}

// appendDirty records a dirty extent, coalescing with the previous one when
// contiguous.
func (h *Handle) appendDirty(off, size int64) {
	if n := len(h.dirty); n > 0 {
		last := &h.dirty[n-1]
		if last.off+last.size == off {
			last.size += size
			return
		}
	}
	h.dirty = append(h.dirty, extent{off, size})
}

// takeDirty empties the write-behind buffer, appending the striped chunks
// of every dirty extent to chunks and reporting the furthest byte they
// reach. Buffered data is dropped whether or not the writeback that
// follows succeeds — on failure it is lost, as with a real client cache.
func (h *Handle) takeDirty(chunks []chunk) (_ []chunk, maxEnd int64) {
	var total int64
	for _, ex := range h.dirty {
		chunks = appendStripeChunks(chunks, h.layout, ex.off, ex.size)
		if end := ex.off + ex.size; end > maxEnd {
			maxEnd = end
		}
		total += ex.size
	}
	h.dirty = nil
	h.c.wbDirty -= total
	return chunks, maxEnd
}

// flush writes out all dirty extents (see takeDirty); a writeback error
// surfaces to the caller.
func (h *Handle) flush(p *des.Proc) error {
	if len(h.dirty) == 0 {
		return nil
	}
	chunks, maxEnd := h.takeDirty(nil)
	if err := h.doIO(p, chunks, true); err != nil {
		return err
	}
	return h.updateSize(p, maxEnd)
}

// Read reads size bytes at offset off, blocking in simulated time. With
// readahead enabled, misses fetch an extended window and later reads
// within the window are served from client memory. Under a DegradedReads
// policy, a read spanning a crashed OST returns *DegradedReadError after
// fetching the reachable stripes; a closed handle returns ErrClosedHandle.
func (h *Handle) Read(p *des.Proc, off, size int64) error {
	if h.closed {
		return fmt.Errorf("%w: read %s", ErrClosedHandle, h.path)
	}
	if size <= 0 {
		return nil
	}
	start := p.Now()
	ra := h.c.fs.cfg.ClientReadahead
	var err error
	switch {
	case ra > 0 && h.raValid && off >= h.raStart && off+size <= h.raEnd:
		// Cache hit: served from client memory at zero simulated cost.
	case ra > 0:
		fetch := size + ra
		err = h.doIO(p, stripeChunks(h.layout, off, fetch), false)
		if err == nil {
			h.raStart, h.raEnd, h.raValid = off, off+fetch, true
		}
	default:
		err = h.doIO(p, stripeChunks(h.layout, off, size), false)
	}
	h.c.fs.observe(OpEvent{Client: h.c.node.Name(), Op: "read", Path: h.path, Offset: off, Size: size, Start: start, End: p.Now()})
	return err
}

// Fsync flushes buffered writes.
func (h *Handle) Fsync(p *des.Proc) error {
	start := p.Now()
	err := h.flush(p)
	h.c.fs.observe(OpEvent{Client: h.c.node.Name(), Op: "fsync", Path: h.path, Start: start, End: p.Now()})
	return err
}

// Close flushes and closes the handle. The handle is closed even when the
// final flush fails; the flush error is returned.
func (h *Handle) Close(p *des.Proc) error {
	if h.closed {
		return nil
	}
	start := p.Now()
	err := h.flush(p)
	h.closed = true
	h.c.fs.observe(OpEvent{Client: h.c.node.Name(), Op: "close", Path: h.path, Start: start, End: p.Now()})
	return err
}
