package pfs

import (
	"sort"
	"strconv"
	"unsafe"

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

// NewClient registers a new client on compute node nodeName. A client
// that a Reset retired from a node of that name comes back, with its
// node, initialized exactly as a new client is: its I/O node by the
// round robin, zero statistics and idle links. It allocates nothing then.
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

// clientsPerChunk is how many clients a file system with many of them
// carves from one allocation: once it has clientsPerChunk clients, the
// next ones come from chunks of that many, so at most one chunk is part
// unused. Smaller jobs allocate their clients one by one and pay for no
// unused slot. A chunk is as many clients as fit in 32 KiB, which the
// runtime allocates as four whole pages with room for the 8-byte
// allocation header of a type with pointers; a smaller chunk would round
// up to a size class with more waste (64 clients of 128 bytes take 9,472
// bytes, not 8,192).
const clientsPerChunk = 32 << 10 / int(unsafe.Sizeof(Client{}))

// newClientOn registers a client on node n: the client a Reset retired
// from n's name if there is one, else a new one.
func (fs *FS) newClientOn(n *netsim.Node) *Client {
	c := fs.retired[n.Name()]
	switch {
	case c != nil:
		delete(fs.retired, n.Name())
	case len(fs.clientList) < clientsPerChunk:
		c = new(Client)
	default:
		if len(fs.clientChunk) == 0 {
			fs.clientChunk = make([]Client, clientsPerChunk)
		}
		c = &fs.clientChunk[0]
		fs.clientChunk = fs.clientChunk[1:]
	}
	*c = Client{fs: fs, node: n}
	if len(fs.ionodes) > 0 {
		ion := fs.ionodes[fs.nextION]
		c.ionC, c.ionS = ion.c, ion.s
		fs.nextION = (fs.nextION + 1) % int32(len(fs.ionodes))
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

// Mkdir creates a directory.
func (c *Client) Mkdir(p *des.Proc, path string) error { return c.nsOp(p, OpMkdir, path) }

// Rmdir removes an empty directory.
func (c *Client) Rmdir(p *des.Proc, path string) error { return c.nsOp(p, OpRmdir, path) }

// Unlink removes a file.
func (c *Client) Unlink(p *des.Proc, path string) error { return c.nsOp(p, OpUnlink, path) }

// nsOp runs a namespace op whose only result is its error.
func (c *Client) nsOp(p *des.Proc, op MetaOp, path string) error {
	path, err := cleanPath(path)
	if err != nil {
		return err
	}
	m := c.newMeta(op, path)
	err = m.await(p)
	m.recycle()
	return err
}

// Stat returns file metadata.
func (c *Client) Stat(p *des.Proc, path string) (FileInfo, error) {
	path, err := cleanPath(path)
	if err != nil {
		return FileInfo{}, err
	}
	m := c.newMeta(OpStat, path)
	var fi FileInfo
	if err = m.await(p); err == nil {
		fi = FileInfo{Path: path, IsDir: m.isDir, Size: m.end, Layout: m.layout, CTime: m.ctime, MTime: m.mtime}
	}
	m.recycle()
	return fi, err
}

// Readdir lists the names in a directory, in sorted order.
func (c *Client) Readdir(p *des.Proc, path string) ([]string, error) {
	path, err := cleanPath(path)
	if err != nil {
		return nil, err
	}
	m := c.newMeta(OpReaddir, path)
	err = m.await(p)
	names := m.names
	m.recycle()
	return names, err
}

// Handle is an open file. The blocking Create and Open return a new
// one; the continuation forms CreateE and OpenE open into a Handle their
// caller owns, which may be embedded by value and re-opened once it has
// been closed. A handle opened before its file system's last Reset is
// stale: every operation on it fails with ErrStaleHandle, and it may be
// re-opened as a closed one may.
type Handle struct {
	c       *Client
	path    string
	layout  Layout
	closed  bool
	raValid bool   // the readahead window below is valid
	gen     uint32 // the file system's generation at the open (FS.gen)

	// readahead window already fetched from the servers
	raStart, raEnd int64

	// err is the outcome of the handle's last operation (see Err).
	err error
}

// Err returns the outcome of the handle's last operation: the create or
// open that opened it, or the last write, read, fsync or close. The Step
// a continuation call runs on completion reads its outcome here.
func (h *Handle) Err() error { return h.err }

// Create makes a new file with the given striping (0 values select the
// file-system defaults) and returns an open handle.
func (c *Client) Create(p *des.Proc, path string, stripeCount int, stripeSize int64) (*Handle, error) {
	path, err := cleanPath(path)
	if err != nil {
		return nil, err
	}
	m := c.newMeta(OpCreate, path)
	m.layout.StripeCount, m.layout.StripeSize = stripeCount, stripeSize
	return m.awaitHandle(p)
}

// Open opens an existing file.
func (c *Client) Open(p *des.Proc, path string) (*Handle, error) {
	path, err := cleanPath(path)
	if err != nil {
		return nil, err
	}
	return c.newMeta(OpOpen, path).awaitHandle(p)
}

// The MDS-side namespace bodies below run at the MDS once a metadata call
// (metaCall.apply) has paid for the request leg, MDS queueing and
// service.

// createNS is the MDS-side body of a create: it checks the namespace,
// allocates the new file's layout, and links the inode.
func (fs *FS) createNS(path string, stripeCount int, stripeSize int64) (Layout, error) {
	par, err := fs.parentForNewNS(path)
	if err != nil {
		return Layout{}, err
	}
	layout := fs.allocateLayout(stripeCount, stripeSize)
	now := fs.eng.Now()
	n := fs.mds.newInode()
	*n = inode{path: path, layout: layout, ctime: now, mtime: now}
	fs.mds.inodes[path] = n
	par.children[path] = true
	return layout, nil
}

// inodesAlone is how many inodes a file system's MDS allocates one by one
// after New or Reset; later ones are carved from 32 KiB chunks of
// inodesPerChunk, as clients are (see clientsPerChunk), so a namespace of
// many files costs few objects, and a small job or a reset cluster carves
// none. A chunk stays reachable while any inode carved from it is in the
// namespace, so one live file can keep 32 KiB of unlinked ones: this
// suits namespaces that grow, like a checkpoint's, more than ones that
// churn.
const (
	inodesAlone    = 256
	inodesPerChunk = 32 << 10 / int(unsafe.Sizeof(inode{}))
)

// newInode returns storage for a new inode. Past the first inodesAlone,
// the count of inodes made says which slot of the current chunk is next.
func (m *mds) newInode() *inode {
	i := int(m.inodesMade) - inodesAlone
	m.inodesMade++
	if i < 0 {
		return new(inode)
	}
	i %= inodesPerChunk
	if i == 0 {
		m.inodeChunk = new([inodesPerChunk]inode)
	}
	return &m.inodeChunk[i]
}

// parentForNewNS checks that path is free and that its parent is a
// directory, and returns the parent.
func (fs *FS) parentForNewNS(path string) (*inode, error) {
	ino := fs.mds.inodes
	if _, dup := ino[path]; dup {
		return nil, ErrExist
	}
	par, ok := ino[parentOf(path)]
	if !ok {
		return nil, ErrNotExist
	}
	if !par.isDir {
		return nil, ErrNotDir
	}
	return par, nil
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

// mkdirNS is the MDS-side body of a mkdir.
func (fs *FS) mkdirNS(path string) error {
	par, err := fs.parentForNewNS(path)
	if err != nil {
		return err
	}
	now := fs.eng.Now()
	n := fs.mds.newInode()
	*n = inode{path: path, isDir: true, children: map[string]bool{}, ctime: now, mtime: now}
	fs.mds.inodes[path] = n
	par.children[path] = true
	return nil
}

// rmdirNS is the MDS-side body of an rmdir: the directory must be empty
// and not the root.
func (fs *FS) rmdirNS(path string) error {
	ino := fs.mds.inodes
	n, ok := ino[path]
	if !ok {
		return ErrNotExist
	}
	if !n.isDir {
		return ErrNotDir
	}
	if len(n.children) > 0 || path == "/" {
		return ErrNotEmpty
	}
	delete(ino, path)
	delete(ino[parentOf(path)].children, path)
	return nil
}

// unlinkNS is the MDS-side body of an unlink.
func (fs *FS) unlinkNS(path string) error {
	ino := fs.mds.inodes
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
}

// statNS is the MDS-side body of a stat: it resolves path to its inode.
func (fs *FS) statNS(path string) (*inode, error) {
	n, ok := fs.mds.inodes[path]
	if !ok {
		return nil, ErrNotExist
	}
	return n, nil
}

// readdirNS is the MDS-side body of a readdir: the directory's children,
// sorted, because map order would make any per-entry work that follows
// (io500's find phase stats every entry) differ from run to run.
func (fs *FS) readdirNS(path string) ([]string, error) {
	n, ok := fs.mds.inodes[path]
	if !ok {
		return nil, ErrNotExist
	}
	if !n.isDir {
		return nil, ErrNotDir
	}
	if len(n.children) == 0 {
		return nil, nil
	}
	names := make([]string, 0, len(n.children))
	for child := range n.children {
		names = append(names, child)
	}
	sort.Strings(names)
	return names, nil
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

// Write writes size bytes at offset off through to the OSTs, blocking in
// simulated time. A closed handle returns ErrClosedHandle.
func (h *Handle) Write(p *des.Proc, off, size int64) error {
	return h.newIO(ioWrite, off, size, nil).await(p)
}

// Read reads size bytes at offset off, blocking in simulated time. With
// readahead enabled, misses fetch an extended window and later reads
// within the window are served from client memory. Under a DegradedReads
// policy, a read spanning a crashed OST returns *DegradedReadError after
// fetching the reachable stripes; a closed handle returns ErrClosedHandle.
func (h *Handle) Read(p *des.Proc, off, size int64) error {
	return h.newIO(ioRead, off, size, nil).await(p)
}

// Fsync makes the handle's writes durable. The client buffers no
// writes, so it completes at once.
func (h *Handle) Fsync(p *des.Proc) error { return h.newIO(ioFsync, 0, 0, nil).await(p) }

// Close closes the handle. Closing a closed handle does nothing.
func (h *Handle) Close(p *des.Proc) error { return h.newIO(ioClose, 0, 0, nil).await(p) }
