package pfs

import (
	"fmt"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/netsim"
)

// This file holds the one implementation of every client operation: each
// is a continuation-form state machine, run on the caller's EventProc.
// The E-suffixed methods start one on a spawned EventProc and run a
// des.Step once it completes, which reads the outcome from the handle
// (Handle.Err); the blocking methods in client.go start the same machine
// on the calling goroutine proc's hosted EventProc (des.Proc.Await) and
// read its outcome when the proc resumes. There is no second copy of any
// operation: cost model, retry policy, statistics and observer events
// exist once.
//
// Each operation in flight is a state machine — metaCall (one metadata
// RPC), ioCall (one write, read, fsync or close) or rpcCall (one data RPC)
// — that is its own continuation: every blocking point re-enters its Step
// method. Arguments and results travel in the struct, and it returns to a
// bounded free list on its FS when its last step fires (or, for an
// awaited call, once the proc has read its outcome), so a steady-state
// operation allocates nothing of its own.

// maxFreeCalls caps each of an FS's call free lists. When every rank of
// a shard is in the same phase, a burst of calls completes at once; only
// this many are kept, so the burst is not retained for the rest of the
// run (see des.FreeList).
const maxFreeCalls = 256

// leg is one client↔server message of a continuation call: one hop on a
// flat network, two through the client's I/O node.
type leg struct {
	server *netsim.Node
	size   int64
	out    bool  // client to server
	hops   uint8 // hops issued so far
}

// hopE issues the next hop of l with continuation k and reports true, or
// reports false once every hop has completed. A leg crosses the client's
// I/O node when it has one.
func (c *Client) hopE(l *leg, ep *des.EventProc, k des.Step) bool {
	fs := c.fs
	if c.ionC == nil {
		if l.hops > 0 {
			return false
		}
		l.hops++
		if l.out {
			fs.compute.TransferE(ep, c.node, l.server, l.size, k)
		} else {
			fs.compute.TransferE(ep, l.server, c.node, l.size, k)
		}
		return true
	}
	switch l.hops {
	case 0:
		l.hops++
		if l.out {
			fs.compute.TransferE(ep, c.node, c.ionC, l.size, k)
		} else {
			fs.storage.TransferE(ep, l.server, c.ionS, l.size, k)
		}
	case 1:
		l.hops++
		if l.out {
			fs.storage.TransferE(ep, c.ionS, l.server, l.size, k)
		} else {
			fs.compute.TransferE(ep, c.ionC, c.node, l.size, k)
		}
	default:
		return false
	}
	return true
}

// metaCall is one metadata RPC under the resilience policy: request leg,
// MDS queueing and service, namespace body, response leg (plus the
// listing payload of a readdir), and backoff between attempts. An
// unavailable MDS leaves the request unanswered, the client times out and
// retries with exponential backoff until the policy's budget is
// exhausted. Namespace errors (ErrExist, ...) are final and never retried:
// the operation did run, it just failed.
type metaCall struct {
	c       *Client
	ep      *des.EventProc
	op      MetaOp
	attempt int32
	phase   uint8
	isDir   bool // a stat's result
	des.Pooled
	leg  leg
	path string

	// Namespace arguments and results. A create passes its requested
	// striping in layout and gets the allocated layout back; a set-size
	// passes the new file end in end; a stat returns isDir, the size in
	// end, layout, ctime and mtime; a readdir returns names.
	end          int64
	layout       Layout
	ctime, mtime des.Time
	names        []string
	err          error
	start        des.Time

	// Completion: a continuation create or open settles the handle h it
	// opens, and a set-size leaves its outcome in h, the handle of the
	// write it belongs to. Then k runs: the caller's Step, or for a
	// set-size the write's ioCall. Without k, a goroutine proc awaits the
	// call and reads its outcome, a create's or open's layout included,
	// before recycling it.
	h *Handle
	k des.Step
}

// metaCall phases: the step that runs when the pending blocking point
// fires.
const (
	mcSend    uint8 = iota // request leg in flight
	mcTimeout              // RPC timeout elapsed: the MDS never answered
	mcQueued               // holds an MDS thread
	mcServed               // MDS op cost paid
	mcReply                // response leg in flight
	mcListing              // readdir listing payload in flight
	mcBackoff              // retry backoff elapsed
)

// newMeta takes a metaCall for op on path from the free list.
func (c *Client) newMeta(op MetaOp, path string) *metaCall {
	m := c.fs.metaFree.Get()
	m.c, m.op, m.path = c, op, path
	return m
}

// run starts the call on ep.
func (m *metaCall) run(ep *des.EventProc) {
	m.ep, m.start = ep, ep.Now()
	m.send()
	m.Step()
}

// await runs m on goroutine proc p and returns its error. The caller
// reads any other result, then recycles m.
func (m *metaCall) await(p *des.Proc) error {
	p.Await(m.run)
	return m.err
}

// awaitHandle runs a create or open on goroutine proc p and returns the
// new handle it opened, which is allocated only once the call has
// succeeded.
func (m *metaCall) awaitHandle(p *des.Proc) (*Handle, error) {
	var h *Handle
	err := m.await(p)
	if err == nil {
		h = &Handle{c: m.c, path: m.path, layout: m.layout, gen: m.c.fs.gen}
	}
	m.recycle()
	return h, err
}

// send starts an attempt: count the request and put it on the wire.
func (m *metaCall) send() {
	c := m.c
	c.stats.MetaRPCs++
	c.stats.BytesSent += metaReqSize
	m.leg = leg{server: c.fs.mds.node, size: metaReqSize, out: true}
	m.phase = mcSend
}

func (m *metaCall) Step() {
	if m.Recycled() {
		panic("pfs: metadata call resumed after it was recycled")
	}
	c := m.c
	fs := c.fs
	for {
		switch m.phase {
		case mcSend:
			if c.hopE(&m.leg, m.ep, m) {
				return
			}
			if fs.mds.down {
				// No response: the RPC dies on the simulated timeout.
				m.phase = mcTimeout
				if t := fs.cfg.Resilience.RPCTimeout; t > 0 {
					m.ep.Wait(t, m)
					return
				}
				continue
			}
			m.phase = mcQueued
			fs.mds.threads.AcquireE(m.ep, m)
			return
		case mcTimeout:
			c.stats.TimedOutRPCs++
			m.err = ErrMDSUnavailable
			m.settle()
			return
		case mcQueued:
			m.phase = mcServed
			m.ep.Wait(fs.mds.opCost, m)
			return
		case mcServed:
			md := fs.mds
			md.threads.Release()
			md.ops[m.op]++
			md.busy += md.opCost
			m.err = m.apply()
			c.stats.BytesRecv += metaRespSize
			m.leg = leg{server: md.node, size: metaRespSize}
			m.phase = mcReply
		case mcReply:
			if c.hopE(&m.leg, m.ep, m) {
				return
			}
			if len(m.names) > 0 {
				// Pay for the directory payload: ~64 bytes per entry.
				m.leg = leg{server: fs.mds.node, size: int64(len(m.names)) * 64}
				m.phase = mcListing
				continue
			}
			m.settle()
			return
		case mcListing:
			if c.hopE(&m.leg, m.ep, m) {
				return
			}
			m.finish()
			return
		case mcBackoff:
			m.attempt++
			m.send()
		}
	}
}

// apply runs the op's MDS-side namespace body.
func (m *metaCall) apply() (err error) {
	fs := m.c.fs
	switch m.op {
	case OpCreate:
		m.layout, err = fs.createNS(m.path, m.layout.StripeCount, m.layout.StripeSize)
	case OpOpen:
		m.layout, err = fs.openNS(m.path)
	case OpSetSize:
		err = fs.setSizeNS(m.path, m.end)
	case OpMkdir:
		err = fs.mkdirNS(m.path)
	case OpRmdir:
		err = fs.rmdirNS(m.path)
	case OpUnlink:
		err = fs.unlinkNS(m.path)
	case OpStat:
		var n *inode
		if n, err = fs.statNS(m.path); err == nil {
			m.isDir, m.end, m.layout, m.ctime, m.mtime = n.isDir, n.size, n.layout, n.ctime, n.mtime
		}
	case OpReaddir:
		m.names, err = fs.readdirNS(m.path)
	default:
		panic(fmt.Sprintf("pfs: no namespace body for %v", m.op))
	}
	return err
}

// settle ends an attempt: a final outcome finishes the call, a retryable
// one within budget waits out the backoff before the next attempt.
func (m *metaCall) settle() {
	c := m.c
	if m.err != nil && retryable(m.err) {
		pol := c.fs.cfg.Resilience
		if int(m.attempt) < pol.MaxRetries {
			c.stats.Retries++
			m.phase = mcBackoff
			m.ep.Wait(pol.backoff(c.fs.eng, int(m.attempt)), m)
			return
		}
		c.stats.FailedRPCs++
	}
	m.finish()
}

// finish emits the client operation's observer event (a set-size is part
// of a write, not an operation of its own), records the outcome in the
// call's handle, if any, and runs k. A create or open that failed leaves
// its handle closed.
func (m *metaCall) finish() {
	c := m.c
	if m.op != OpSetSize {
		c.fs.observe(OpEvent{Client: c.node.Name(), Op: m.op.String(), Path: m.path, Size: int64(len(m.names)), Start: m.start, End: m.ep.Now()})
	}
	if h := m.h; h != nil {
		h.err = m.err
		if m.op != OpSetSize {
			h.layout, h.closed = m.layout, m.err != nil
		}
	}
	if k := m.k; k != nil {
		m.recycle()
		k.Step()
	}
}

// recycle returns m to the free list.
func (m *metaCall) recycle() {
	fs := m.c.fs
	*m = metaCall{Pooled: m.Pooled}
	fs.metaFree.Put(m)
}

// CreateE is the continuation form of Create: it creates path and opens
// it into h, a handle its caller owns, then runs k, which reads the
// outcome from h.Err. A create that fails leaves h closed. h may be a
// zero Handle or one that has been closed; CreateE panics with
// ErrHandleOpen if h is still open, or is still being opened.
func (c *Client) CreateE(ep *des.EventProc, h *Handle, path string, stripeCount int, stripeSize int64, k des.Step) {
	if m := c.openInto(h, OpCreate, path, k); m != nil {
		m.layout.StripeCount, m.layout.StripeSize = stripeCount, stripeSize
		m.run(ep)
	}
}

// OpenE is the continuation form of Open: it opens path into the
// caller-owned h, as CreateE does, then runs k.
func (c *Client) OpenE(ep *des.EventProc, h *Handle, path string, k des.Step) {
	if m := c.openInto(h, OpOpen, path, k); m != nil {
		m.run(ep)
	}
}

// openInto makes h an opening handle on c for path and returns a metaCall
// for op that settles h and runs k. For a path that is not valid it fails
// h and runs k at once, and returns nil.
func (c *Client) openInto(h *Handle, op MetaOp, path string, k des.Step) *metaCall {
	if h.c != nil && !h.closed && !h.stale() {
		panic(fmt.Errorf("%w: %s", ErrHandleOpen, path))
	}
	path, err := cleanPath(path)
	*h = Handle{c: c, path: path, gen: c.fs.gen}
	if err != nil {
		h.closed, h.err = true, err
		k.Step()
		return nil
	}
	m := c.newMeta(op, path)
	m.h, m.k = h, k
	return m
}

// stale reports whether h was opened before its file system's last
// Reset.
func (h *Handle) stale() bool { return h.gen != h.c.fs.gen }

// ioKind is the client operation an ioCall serves.
type ioKind uint8

const (
	ioWrite ioKind = iota
	ioRead
	ioFsync
	ioClose
)

var ioKindNames = [...]string{"write", "read", "fsync", "close"}

// ioCall is one write, read, fsync or close: the readahead window, the
// striped RPC fan-out as spawned rpcCall procs joined on a WaitGroup, the
// size update that follows a write, and the operation's observer event.
// The client buffers no writes, so an fsync or a close moves no data and
// takes no simulated time. Its chunk, RPC and error slices and its
// WaitGroup are reused from call to call.
type ioCall struct {
	h      *Handle
	ep     *des.EventProc
	kind   ioKind
	sizing bool // the write's size update is in flight
	des.Pooled
	off  int64
	size int64
	// end is where the fan-out's range ends: the file size to record
	// after a write, or the end of the readahead window a read miss
	// fetches; 0 for a read without readahead.
	end   int64
	start des.Time
	err   error

	chunks, rpcs []chunk
	errs         []error
	wg           des.WaitGroup
	// Inline backing for the common one-chunk request, so a new ioCall
	// needs no separate slice allocations.
	chunk1, rpc1 [1]chunk
	err1         [1]error

	// Completion: the outcome is recorded in h, then k runs. Without k, a
	// goroutine proc awaits the call and reads err before recycling it.
	k des.Step
}

// getIO takes an ioCall from the free list; a new one gets its inline
// slice backing.
func (fs *FS) getIO() *ioCall {
	io := fs.ioFree.Get()
	if io.chunks == nil {
		io.chunks, io.rpcs, io.errs = io.chunk1[:0], io.rpc1[:0], io.err1[:0]
	}
	return io
}

// newIO takes an ioCall of the given kind on h from the free list.
func (h *Handle) newIO(kind ioKind, off, size int64, k des.Step) *ioCall {
	io := h.c.fs.getIO()
	io.h, io.kind, io.off, io.size, io.k = h, kind, off, size, k
	io.end, io.sizing = 0, false
	return io
}

// await runs io on goroutine proc p and returns its outcome.
func (io *ioCall) await(p *des.Proc) error {
	p.Await(io.run)
	err := io.err
	io.recycle()
	return err
}

// run starts the operation on ep. Any operation on a stale handle fails
// with ErrStaleHandle, a read or write on a closed handle fails with
// ErrClosedHandle, and closing a closed handle does nothing; none of them
// is observed as an operation.
func (io *ioCall) run(ep *des.EventProc) {
	h := io.h
	io.ep, io.start = ep, ep.Now()
	switch {
	case h.stale():
		io.complete(fmt.Errorf("%w: %s %s", ErrStaleHandle, ioKindNames[io.kind], h.path))
	case io.kind == ioClose && h.closed:
		io.complete(nil)
	case io.kind >= ioFsync:
		io.finish()
	case h.closed:
		io.complete(fmt.Errorf("%w: %s %s", ErrClosedHandle, ioKindNames[io.kind], h.path))
	case io.size <= 0:
		io.complete(nil)
	case io.kind == ioWrite:
		io.writeOp()
	default:
		io.readOp()
	}
}

// writeOp writes through to the OSTs.
func (io *ioCall) writeOp() {
	h := io.h
	h.raValid = false // writes invalidate the readahead window
	io.end = io.off + io.size
	io.chunks = appendStripeChunks(io.chunks[:0], h.layout, io.off, io.size)
	io.fanOut()
}

// readOp serves a read from the readahead window, or fetches it (with the
// window, when readahead is on).
func (io *ioCall) readOp() {
	h := io.h
	off, size := io.off, io.size
	switch ra := h.c.fs.cfg.ClientReadahead; {
	case ra > 0 && h.raValid && off >= h.raStart && off+size <= h.raEnd:
		// Cache hit: served from client memory at zero simulated cost.
		io.finish()
	case ra > 0:
		io.end = off + size + ra
		io.chunks = appendStripeChunks(io.chunks[:0], h.layout, off, size+ra)
		io.fanOut()
	default:
		io.chunks = appendStripeChunks(io.chunks[:0], h.layout, off, size)
		io.fanOut()
	}
}

// launch starts io.chunks as parallel RPCs across OSTs — one pooled
// rpcCall per RPC, each on the event proc it embeds, so a steady-state
// RPC costs one pooled event and no allocation — counted on io.wg.
func (io *ioCall) launch() {
	h := io.h
	fs := h.c.fs
	write := io.kind == ioWrite
	io.rpcs = fs.splitRPCs(io.rpcs[:0], io.chunks)
	n := len(io.rpcs)
	if cap(io.errs) < n {
		io.errs = make([]error, n)
	}
	io.errs = io.errs[:n]
	for i, rpc := range io.rpcs {
		io.wg.Add(1)
		rc := fs.rpcFree.Get()
		rc.io, rc.c, rc.i = io, h.c, i
		rc.o = fs.osts[h.layout.OSTs[rpc.ostIdx]]
		rc.obj = objKey{h.path, rpc.ostIdx}
		rc.objOff, rc.size, rc.write = rpc.objOff, rpc.size, write
		rc.phase = rcStart
		fs.eng.SpawnEventOn(&rc.ep, "rpc", -1, rc)
	}
}

// fanOut launches io.chunks as parallel RPCs and resumes io once they
// have all completed.
func (io *ioCall) fanOut() {
	io.launch()
	io.wg.WaitE(io.ep, io)
}

// Step settles the joined fan-out: a write goes on to its size update,
// a read miss records its readahead window. It runs again once a write's
// size update is done, whose outcome the update left in the handle.
func (io *ioCall) Step() {
	if io.Recycled() {
		panic("pfs: I/O call resumed after it was recycled")
	}
	h := io.h
	if io.sizing {
		io.err = h.err
		io.finish()
		return
	}
	write := io.kind == ioWrite
	io.err = h.settleIO(io.rpcs, io.errs, write)
	if io.err == nil {
		if write {
			io.setSize()
			return
		}
		if io.end > 0 {
			h.raStart, h.raEnd, h.raValid = io.off, io.end, true
		}
	}
	io.finish()
}

// setSize grows the file size at the MDS to io.end (a size RPC, as Lustre
// clients batch; modeled as one metadata op), then resumes io.
func (io *ioCall) setSize() {
	h := io.h
	m := h.c.newMeta(OpSetSize, h.path)
	m.end, m.h, m.k = io.end, h, io
	io.sizing = true
	m.run(io.ep)
}

// finish emits the operation's observer event and completes it. A close
// marks the handle closed.
func (io *ioCall) finish() {
	h := io.h
	if io.kind == ioClose {
		h.closed = true
	}
	h.c.fs.observe(OpEvent{Client: h.c.node.Name(), Op: ioKindNames[io.kind], Path: h.path, Offset: io.off, Size: io.size, Start: io.start, End: io.ep.Now()})
	io.complete(io.err)
}

// complete records the outcome in io and its handle and, for a call with
// a continuation, recycles io and runs it.
func (io *ioCall) complete(err error) {
	io.err, io.h.err = err, err
	if k := io.k; k != nil {
		io.recycle()
		k.Step()
	}
}

// recycle returns io to the free list.
func (io *ioCall) recycle() {
	fs := io.h.c.fs
	clear(io.errs)
	io.h, io.ep, io.err, io.k = nil, nil, nil, nil
	fs.ioFree.Put(io)
}

// rpcCall is one OST-directed data RPC under the resilience policy, on
// the event proc it embeds: request leg, then a timeout (crashed OST), an
// error reply (injected transient fault) or the device access and reply
// leg, with backoff between attempts. Its outcome lands in the owning
// ioCall's error slot. The proc is restarted in place for every RPC the
// struct serves (des.Engine.SpawnEventOn), so it recycles with the call.
type rpcCall struct {
	io *ioCall
	c  *Client
	i  int // slot in io.errs
	// ep is never reset: the step that recycles the call runs on it, and
	// the engine reads it after that step returns.
	ep      des.EventProc
	o       *ost
	obj     objKey
	objOff  int64
	size    int64
	write   bool
	attempt int
	err     error
	phase   uint8
	des.Pooled
	leg leg
}

// rpcCall phases: the step that runs when the pending blocking point
// fires.
const (
	rcStart    uint8 = iota // the RPC's proc starts
	rcSend                  // request leg in flight
	rcTimeout               // RPC timeout elapsed: the OST never answered
	rcErrReply              // error reply leg in flight
	rcServed                // device access done
	rcReply                 // reply leg in flight
	rcBackoff               // retry backoff elapsed
)

// send starts an attempt: count the request and put it on the wire (the
// payload for a write, a request header for a read).
func (rc *rpcCall) send() {
	c := rc.c
	req := int64(dataReqSize)
	if rc.write {
		c.stats.WriteRPCs++
		req = rc.size
	} else {
		c.stats.ReadRPCs++
	}
	c.stats.BytesSent += req
	rc.leg = leg{server: rc.o.oss, size: req, out: true}
	rc.phase = rcSend
}

func (rc *rpcCall) Step() {
	if rc.Recycled() {
		panic("pfs: data RPC resumed after it was recycled")
	}
	c, o := rc.c, rc.o
	fs := c.fs
	for {
		switch rc.phase {
		case rcStart:
			rc.send()
		case rcSend:
			if c.hopE(&rc.leg, &rc.ep, rc) {
				return
			}
			if o.down {
				rc.phase = rcTimeout
				if t := fs.cfg.Resilience.RPCTimeout; t > 0 {
					rc.ep.Wait(t, rc)
					return
				}
				continue
			}
			if r := fs.transientRate; r > 0 && fs.eng.RNG().Stream("pfs.transient").Float64() < r {
				c.stats.BytesRecv += dataReqSize
				rc.leg = leg{server: o.oss, size: dataReqSize}
				rc.phase = rcErrReply
				continue
			}
			rc.phase = rcServed
			req := blockdev.Request{Offset: o.physOffset(rc.obj, rc.objOff), Size: rc.size, Write: rc.write}
			o.dev.AccessE(&rc.ep, req, rc)
			return
		case rcTimeout:
			c.stats.TimedOutRPCs++
			rc.err = fmt.Errorf("%w: ost%d", ErrOSTDown, o.id)
			rc.settle()
			return
		case rcErrReply:
			if c.hopE(&rc.leg, &rc.ep, rc) {
				return
			}
			rc.err = fmt.Errorf("%w: ost%d %s@%d+%d", ErrIO, o.id, rc.obj, rc.objOff, rc.size)
			rc.settle()
			return
		case rcServed:
			o.countOp(rc.write)
			if fs.ostObserver != nil {
				fs.ostObserver(OSTEvent{OST: o.id, Size: rc.size, Write: rc.write, At: rc.ep.Now()})
			}
			reply := rc.size
			if rc.write {
				reply = dataReqSize // ack
			}
			c.stats.BytesRecv += reply
			rc.leg = leg{server: o.oss, size: reply}
			rc.phase = rcReply
		case rcReply:
			if c.hopE(&rc.leg, &rc.ep, rc) {
				return
			}
			rc.err = nil
			rc.settle()
			return
		case rcBackoff:
			rc.attempt++
			rc.send()
		}
	}
}

// settle ends an attempt: a final outcome completes the RPC, a retryable
// one within budget waits out the backoff before the next attempt.
func (rc *rpcCall) settle() {
	c := rc.c
	if rc.err != nil && retryable(rc.err) {
		pol := c.fs.cfg.Resilience
		if rc.attempt < pol.MaxRetries {
			c.stats.Retries++
			rc.phase = rcBackoff
			rc.ep.Wait(pol.backoff(c.fs.eng, rc.attempt), rc)
			return
		}
		c.stats.FailedRPCs++
	}
	io, fs := rc.io, c.fs
	io.errs[rc.i] = rc.err
	rc.io, rc.c, rc.o, rc.obj, rc.leg, rc.err, rc.attempt = nil, nil, nil, objKey{}, leg{}, nil, 0
	fs.rpcFree.Put(rc)
	io.wg.Done()
}

// WriteE is the continuation form of Write. k reads the outcome from
// h.Err, as for every continuation call on a handle.
func (h *Handle) WriteE(ep *des.EventProc, off, size int64, k des.Step) {
	h.newIO(ioWrite, off, size, k).run(ep)
}

// FsyncE is the continuation form of Fsync.
func (h *Handle) FsyncE(ep *des.EventProc, k des.Step) {
	h.newIO(ioFsync, 0, 0, k).run(ep)
}

// CloseE is the continuation form of Close. A closed handle may be
// opened again with CreateE or OpenE.
func (h *Handle) CloseE(ep *des.EventProc, k des.Step) {
	h.newIO(ioClose, 0, 0, k).run(ep)
}
