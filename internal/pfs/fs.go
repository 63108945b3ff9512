package pfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/netsim"
)

// Namespace errors.
var (
	ErrNotExist = errors.New("pfs: no such file or directory")
	ErrExist    = errors.New("pfs: file exists")
	ErrIsDir    = errors.New("pfs: is a directory")
	ErrNotDir   = errors.New("pfs: not a directory")
	ErrNotEmpty = errors.New("pfs: directory not empty")
)

// MetaOp enumerates metadata operation kinds for MDS accounting.
type MetaOp int

// Metadata operation kinds.
const (
	OpLookup MetaOp = iota
	OpCreate
	OpOpen
	OpStat
	OpUnlink
	OpMkdir
	OpRmdir
	OpReaddir
	OpSetSize
	numMetaOps
)

var metaOpNames = [...]string{"lookup", "create", "open", "stat", "unlink", "mkdir", "rmdir", "readdir", "setsize"}

// String returns the operation name.
func (op MetaOp) String() string {
	if op >= 0 && int(op) < len(metaOpNames) {
		return metaOpNames[op]
	}
	return fmt.Sprintf("metaop(%d)", int(op))
}

// Layout is a file's striping configuration.
type Layout struct {
	StripeSize  int64
	StripeCount int
	// OSTs holds the OST indices, len == StripeCount. It is read-only: a
	// round-robin layout shares its backing array with the file system
	// and every other such layout.
	OSTs []int
}

// inode is a namespace entry.
type inode struct {
	path     string
	isDir    bool
	size     int64
	layout   Layout
	children map[string]bool // for directories
	ctime    des.Time
	mtime    des.Time
}

// FileInfo is the result of Stat.
type FileInfo struct {
	Path   string
	IsDir  bool
	Size   int64
	Layout Layout
	CTime  des.Time
	MTime  des.Time
}

// mds is the metadata server: a namespace behind a thread-pool resource.
type mds struct {
	node    *netsim.Node
	threads des.Resource
	opCost  des.Time
	inodes  map[string]*inode
	ops     [numMetaOps]uint64
	busy    des.Time
	down    bool // unavailability window (fault injection)
	// inodesMade counts the inodes created since the last reset, and
	// inodeChunk is the chunk new ones are carved from (see newInode).
	inodesMade int32
	inodeChunk *[inodesPerChunk]inode
}

// reset empties the namespace to the root directory and zeroes the
// server's counters, availability window and count of inodes made, so
// the next inodes are allocated one by one again. A reset keeps the root
// inode, with its children map cleared; New makes both.
func (m *mds) reset() {
	m.threads.Reset()
	root := m.inodes["/"]
	clear(m.inodes)
	if root == nil {
		root = &inode{path: "/", isDir: true, children: map[string]bool{}}
	}
	clear(root.children)
	*root = inode{path: "/", isDir: true, children: root.children}
	m.inodes["/"] = root
	m.ops, m.busy, m.down = [numMetaOps]uint64{}, 0, false
	m.inodesMade, m.inodeChunk = 0, nil
}

// FS is a simulated parallel file system instance.
type FS struct {
	eng     *des.Engine
	cfg     Config
	compute *netsim.Fabric
	storage *netsim.Fabric // nil when NumIONodes == 0 (flat network)
	mds     *mds
	osts    []*ost
	ionodes []ionode
	// fixed holds, for the compute and the storage fabric, the nodes New
	// adds to it: the I/O nodes and servers, which Reset keeps.
	fixed [2][]*netsim.Node
	// ostRing is the OST indices twice over, 0..n-1 then 0..n-1: a
	// round-robin layout's OSTs are a window of it (see allocateLayout).
	ostRing []int

	fsState

	// Free lists of continuation-form call state (client_event.go).
	metaFree des.FreeList[metaCall, *metaCall]
	ioFree   des.FreeList[ioCall, *ioCall]
	rpcFree  des.FreeList[rpcCall, *rpcCall]
}

// fsState is the part of an FS outside its servers and fabrics that a
// run changes, which Reset zeroes.
type fsState struct {
	nextION int
	nextOST int // round-robin base for layout allocation

	clientList []*Client
	// clientChunk is the unused tail of the chunk new clients are carved
	// from (see newClientOn).
	clientChunk []Client

	// Fault-injection state (see resilience.go).
	transientRate float64
	faultLog      []FaultRecord

	observer    func(OpEvent)
	ostObserver func(OSTEvent)
}

// ionode is one I/O-forwarding node: its handles on the compute and the
// storage fabric.
type ionode struct{ c, s *netsim.Node }

// New builds a file system on engine e from cfg. The root directory "/"
// exists; everything else must be created through a Client.
func New(e *des.Engine, cfg Config) *FS {
	cfg = cfg.withDefaults()
	fs := &FS{eng: e, cfg: cfg}
	fs.metaFree.Init(maxFreeCalls)
	fs.ioFree.Init(maxFreeCalls)
	fs.rpcFree.Init(maxFreeCalls)

	fs.compute = netsim.NewFabric(e, cfg.ComputeFabric)
	if cfg.NumIONodes > 0 {
		fs.storage = netsim.NewFabric(e, cfg.StorageFabric)
		for i := 0; i < cfg.NumIONodes; i++ {
			name := fmt.Sprintf("ionode%d", i)
			ion := ionode{c: fs.compute.AddNode(name), s: fs.storage.AddNode(name)}
			fs.ionodes = append(fs.ionodes, ion)
			fs.fixed[0] = append(fs.fixed[0], ion.c)
			fs.fixed[1] = append(fs.fixed[1], ion.s)
		}
	}

	serverFabric, servers := fs.serverFabric(), &fs.fixed[0]
	if fs.storage != nil {
		servers = &fs.fixed[1]
	}
	addServer := func(name string) *netsim.Node {
		n := serverFabric.AddNode(name)
		*servers = append(*servers, n)
		return n
	}
	fs.mds = &mds{node: addServer("mds"), opCost: cfg.MDSOpCost, inodes: make(map[string]*inode)}
	fs.mds.threads.Init(e, "mds.threads", cfg.MDSThreads)

	id := 0
	for oss := 0; oss < cfg.NumOSS; oss++ {
		node := addServer(fmt.Sprintf("oss%d", oss))
		for t := 0; t < cfg.OSTsPerOSS; t++ {
			dev := blockdev.NewDevice(e, fmt.Sprintf("ost%d", id), cfg.OSTDevice(), cfg.OSTQueueDepth)
			fs.osts = append(fs.osts, newOST(id, node, dev))
			id++
		}
	}
	fs.ostRing = make([]int, 2*len(fs.osts))
	for i := range fs.ostRing {
		fs.ostRing[i] = i % len(fs.osts)
	}
	fs.Reset()
	return fs
}

// Reset returns fs to its state just after New, so that one file system
// can serve a sequence of runs of the same configuration on one engine.
// The namespace is the root directory alone; the OSTs' object maps,
// counters and devices, the MDS's counters and the fabrics are reset,
// the fabrics dropping every client node (netsim.Fabric.Reset); the
// client list, fault state and fault log are empty, and no observer is
// installed. What survives is the structure New built (servers, I/O
// nodes, their fabric handles and the configuration) and the free lists
// of call state, which stay warm. New calls Reset too, so a fresh and a
// reset file system are initialized by the same code.
//
// Reset fs after resetting its engine (des.Engine.Reset): a client,
// handle or target from before the reset must not be used after it. It
// panics with des.ErrLiveReset while a server, device or link is busy.
func (fs *FS) Reset() {
	fs.compute.Reset(fs.fixed[0])
	if fs.storage != nil {
		fs.storage.Reset(fs.fixed[1])
	}
	fs.mds.reset()
	for _, o := range fs.osts {
		o.reset()
	}
	clear(fs.clientList)
	fs.fsState = fsState{clientList: fs.clientList[:0]}
}

// serverFabric returns the fabric on which servers live: the storage fabric
// when an I/O-node tier exists, otherwise the compute fabric.
func (fs *FS) serverFabric() *netsim.Fabric {
	if fs.storage != nil {
		return fs.storage
	}
	return fs.compute
}

// Engine returns the simulation engine.
func (fs *FS) Engine() *des.Engine { return fs.eng }

// Config returns the (defaulted) configuration.
func (fs *FS) Config() Config { return fs.cfg }

// NumOSTs returns the number of object storage targets.
func (fs *FS) NumOSTs() int { return len(fs.osts) }

// cleanPath normalizes a path to slash-separated absolute form. An
// already-clean path is returned unchanged, without allocating.
func cleanPath(path string) (string, error) {
	if path == "" || path[0] != '/' {
		return "", fmt.Errorf("pfs: path %q must be absolute", path)
	}
	if isClean(path) {
		return path, nil
	}
	parts := strings.Split(path, "/")
	out := make([]string, 0, len(parts))
	for _, s := range parts {
		switch s {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, s)
		}
	}
	return "/" + strings.Join(out, "/"), nil
}

// isClean reports whether absolute path is already in cleanPath's form:
// "/" alone, or segments that are neither empty, "." nor "..".
func isClean(path string) bool {
	if path == "/" {
		return true
	}
	seg := 1
	for i := 1; i <= len(path); i++ {
		if i == len(path) || path[i] == '/' {
			if s := path[seg:i]; s == "" || s == "." || s == ".." {
				return false
			}
			seg = i + 1
		}
	}
	return true
}

func parentOf(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

// LayoutPolicy selects the OST allocation strategy for new files.
type LayoutPolicy int

// Layout policies.
const (
	// RoundRobin cycles through OSTs in index order (Lustre default).
	RoundRobin LayoutPolicy = iota
	// LeastLoaded picks the OSTs with the fewest bytes written so far —
	// a contention-aware allocator in the spirit of iez (Wadhwa et al.).
	LeastLoaded
)

// String returns the policy name.
func (p LayoutPolicy) String() string {
	if p == LeastLoaded {
		return "least-loaded"
	}
	return "round-robin"
}

// allocateLayout picks OSTs for a new file per the configured policy.
func (fs *FS) allocateLayout(stripeCount int, stripeSize int64) Layout {
	if stripeCount <= 0 {
		stripeCount = fs.cfg.DefaultStripeCount
	}
	if stripeCount > len(fs.osts) {
		stripeCount = len(fs.osts)
	}
	if stripeSize <= 0 {
		stripeSize = fs.cfg.DefaultStripeSize
	}
	l := Layout{StripeSize: stripeSize, StripeCount: stripeCount}
	switch fs.cfg.Layout {
	case LeastLoaded:
		idx := make([]int, len(fs.osts))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			la := fs.osts[idx[a]].dev.Stats().BytesWritten
			lb := fs.osts[idx[b]].dev.Stats().BytesWritten
			if la != lb {
				return la < lb
			}
			return idx[a] < idx[b]
		})
		l.OSTs = append(l.OSTs, idx[:stripeCount]...)
	default:
		// A window of the ring, capped so that an append copies.
		next := fs.nextOST
		l.OSTs = fs.ostRing[next : next+stripeCount : next+stripeCount]
		fs.nextOST = (next + stripeCount) % len(fs.osts)
	}
	return l
}

// MDSStats is a snapshot of metadata-server counters.
type MDSStats struct {
	Ops      map[string]uint64
	TotalOps uint64
	BusyTime des.Time
	QueueLen int
}

// MDSStats returns a snapshot of MDS counters.
func (fs *FS) MDSStats() MDSStats {
	s := MDSStats{Ops: make(map[string]uint64), QueueLen: fs.mds.threads.QueueLen(), BusyTime: fs.mds.busy}
	for op := MetaOp(0); op < numMetaOps; op++ {
		n := fs.mds.ops[op]
		if n > 0 {
			s.Ops[op.String()] = n
		}
		s.TotalOps += n
	}
	return s
}

// OSTStats returns per-OST snapshots, ordered by OST index.
func (fs *FS) OSTStats() []OSTStats {
	out := make([]OSTStats, len(fs.osts))
	for i, o := range fs.osts {
		out[i] = o.stats()
	}
	return out
}

// InjectOSTSlowdown degrades OST id by the given factor (failure /
// straggler injection, >= 1; 1 restores nominal speed). It returns
// ErrNoSuchOST for an unknown id and ErrBadSlowdown for factor < 1.
func (fs *FS) InjectOSTSlowdown(id int, factor float64) error {
	if id < 0 || id >= len(fs.osts) {
		return fmt.Errorf("%w: %d", ErrNoSuchOST, id)
	}
	if factor < 1 {
		return fmt.Errorf("%w: got %g for ost%d", ErrBadSlowdown, factor, id)
	}
	if err := fs.osts[id].dev.SetSlowdown(factor); err != nil {
		return fmt.Errorf("pfs: ost%d: %w", id, err)
	}
	fs.recordFault("ost-slowdown", id, factor)
	return nil
}

// TotalBytes sums read and written bytes over all OSTs.
func (fs *FS) TotalBytes() (read, written int64) {
	for _, o := range fs.osts {
		st := o.dev.Stats()
		read += st.BytesRead
		written += st.BytesWritten
	}
	return read, written
}
