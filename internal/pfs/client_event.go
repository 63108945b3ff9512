package pfs

import (
	"fmt"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/netsim"
)

// This file holds the one implementation of every client operation: each
// is a continuation-form state machine, run on the caller's EventProc.
// The E-suffixed methods start one on a spawned EventProc and hand its
// outcome to a continuation; the blocking methods in client.go start the
// same machine on the calling goroutine proc's hosted EventProc
// (des.Proc.Await) and read its outcome when the proc resumes. There is
// no second copy of any operation: cost model, retry policy, statistics
// and observer events exist once.
//
// Each operation in flight is a state machine — metaCall (one metadata
// RPC), ioCall (one write, read, fsync or close) or rpcCall (one data RPC)
// — whose steps all re-enter a single continuation, resume, bound once
// when the struct is first allocated. Arguments and results travel in the
// struct, and it returns to a bounded free list on its FS when its last
// step fires (or, for an awaited call, once the proc has read its
// outcome), so a steady-state operation allocates nothing of its own.

// maxFreeCalls caps each of an FS's call free lists. When every rank of
// a shard is in the same phase, a burst of calls completes at once; only
// this many are kept, so the burst is not retained for the rest of the
// run.
const maxFreeCalls = 256

// freeList is a bounded stack of recycled call state, owned by one FS.
type freeList[T any] struct{ items []*T }

// get pops a recycled item, or returns nil when the list is empty.
func (l *freeList[T]) get() *T {
	n := len(l.items) - 1
	if n < 0 {
		return nil
	}
	x := l.items[n]
	l.items[n] = nil
	l.items = l.items[:n]
	return x
}

// put recycles x unless the list is full.
func (l *freeList[T]) put(x *T) {
	if len(l.items) < maxFreeCalls {
		l.items = append(l.items, x)
	}
}

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
func (c *Client) hopE(l *leg, ep *des.EventProc, k func()) bool {
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
	leg     leg
	path    string

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

	// Completion: a create or open hands kH the new handle, a set-size
	// resumes the write it belongs to, io. With neither, a goroutine proc
	// awaits the call and reads its outcome before recycling it.
	kH      func(*Handle, error)
	io      *ioCall
	resumeF func()
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
	m := c.fs.metaFree.get()
	if m == nil {
		m = &metaCall{}
		m.resumeF = m.resume
	}
	m.c, m.op, m.path = c, op, path
	return m
}

// run starts the call on ep.
func (m *metaCall) run(ep *des.EventProc) {
	m.ep, m.start = ep, ep.Now()
	m.send()
	m.resume()
}

// await runs m on goroutine proc p and returns its error. The caller
// reads any other result, then recycles m.
func (m *metaCall) await(p *des.Proc) error {
	p.Await(m.run)
	return m.err
}

// awaitHandle runs a create or open on goroutine proc p and returns the
// handle it opened.
func (m *metaCall) awaitHandle(p *des.Proc) (*Handle, error) {
	err := m.await(p)
	h := m.handle()
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

func (m *metaCall) resume() {
	c := m.c
	fs := c.fs
	for {
		switch m.phase {
		case mcSend:
			if c.hopE(&m.leg, m.ep, m.resumeF) {
				return
			}
			if fs.mds.down {
				// No response: the RPC dies on the simulated timeout.
				m.phase = mcTimeout
				if t := fs.cfg.Resilience.RPCTimeout; t > 0 {
					m.ep.Wait(t, m.resumeF)
					return
				}
				continue
			}
			m.phase = mcQueued
			fs.mds.threads.AcquireE(m.ep, m.resumeF)
			return
		case mcTimeout:
			c.stats.TimedOutRPCs++
			m.err = ErrMDSUnavailable
			m.settle()
			return
		case mcQueued:
			m.phase = mcServed
			m.ep.Wait(fs.mds.opCost, m.resumeF)
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
			if c.hopE(&m.leg, m.ep, m.resumeF) {
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
			if c.hopE(&m.leg, m.ep, m.resumeF) {
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
			m.ep.Wait(pol.backoff(c.fs.eng, int(m.attempt)), m.resumeF)
			return
		}
		c.stats.FailedRPCs++
	}
	m.finish()
}

// finish emits the client operation's observer event (a set-size is part
// of a write, not an operation of its own) and hands the outcome on.
func (m *metaCall) finish() {
	c := m.c
	if m.op != OpSetSize {
		c.fs.observe(OpEvent{Client: c.node.Name(), Op: m.op.String(), Path: m.path, Size: int64(len(m.names)), Start: m.start, End: m.ep.Now()})
	}
	switch {
	case m.kH != nil:
		kH, h, err := m.kH, m.handle(), m.err
		m.recycle()
		kH(h, err)
	case m.io != nil:
		io, err := m.io, m.err
		m.recycle()
		io.sized(err)
	}
}

// handle returns the handle a successful create or open opened, or nil.
func (m *metaCall) handle() *Handle {
	if m.err != nil {
		return nil
	}
	return &Handle{c: m.c, path: m.path, layout: m.layout}
}

func (m *metaCall) recycle() {
	fs := m.c.fs
	*m = metaCall{resumeF: m.resumeF}
	fs.metaFree.put(m)
}

// CreateE is the continuation form of Create: the new handle (or error)
// is handed to k.
func (c *Client) CreateE(ep *des.EventProc, path string, stripeCount int, stripeSize int64, k func(*Handle, error)) {
	path, perr := cleanPath(path)
	if perr != nil {
		k(nil, perr)
		return
	}
	m := c.newMeta(OpCreate, path)
	m.layout.StripeCount, m.layout.StripeSize, m.kH = stripeCount, stripeSize, k
	m.run(ep)
}

// OpenE is the continuation form of Open.
func (c *Client) OpenE(ep *des.EventProc, path string, k func(*Handle, error)) {
	path, perr := cleanPath(path)
	if perr != nil {
		k(nil, perr)
		return
	}
	m := c.newMeta(OpOpen, path)
	m.kH = k
	m.run(ep)
}

// ioKind is the client operation an ioCall serves.
type ioKind uint8

const (
	ioWrite ioKind = iota
	ioRead
	ioFsync
	ioClose
)

var ioKindNames = [...]string{"write", "read", "fsync", "close"}

// ioCall is one write, read, fsync or close: the write-behind buffer and
// readahead window, the striped RPC fan-out as spawned rpcCall procs
// joined on a WaitGroup, the size update that follows a write, and the
// operation's observer event. Its chunk, RPC and error slices and its
// WaitGroup are reused from call to call.
type ioCall struct {
	h     *Handle
	ep    *des.EventProc
	kind  ioKind
	write bool // the fan-out writes
	off   int64
	size  int64
	fetch int64 // readahead window fetched by a read miss; 0 without
	end   int64 // file size to record after a write fan-out
	start des.Time
	err   error

	chunks, rpcs []chunk
	errs         []error
	wg           des.WaitGroup
	// Inline backing for the common one-chunk request, so a new ioCall
	// needs no separate slice allocations.
	chunk1, rpc1 [1]chunk
	err1         [1]error

	// Completion: k receives the outcome. Without k, a goroutine proc
	// awaits the call and reads err before recycling it.
	k       func(error)
	resumeF func()
}

// getIO takes an ioCall from the free list, or allocates one.
func (fs *FS) getIO() *ioCall {
	io := fs.ioFree.get()
	if io == nil {
		io = &ioCall{}
		io.chunks, io.rpcs, io.errs = io.chunk1[:0], io.rpc1[:0], io.err1[:0]
		io.resumeF = io.resume
	}
	return io
}

// newIO takes an ioCall of the given kind on h from the free list.
func (h *Handle) newIO(kind ioKind, off, size int64, k func(error)) *ioCall {
	io := h.c.fs.getIO()
	io.h, io.kind, io.off, io.size, io.k = h, kind, off, size, k
	io.fetch, io.end = 0, 0
	return io
}

// await runs io on goroutine proc p and returns its outcome.
func (io *ioCall) await(p *des.Proc) error {
	p.Await(io.run)
	err := io.err
	io.recycle()
	return err
}

// run starts the operation on ep. A read or write on a closed handle
// fails with ErrClosedHandle, and closing a closed handle does nothing;
// neither is observed as an operation.
func (io *ioCall) run(ep *des.EventProc) {
	h := io.h
	io.ep, io.start = ep, ep.Now()
	switch {
	case io.kind == ioClose && h.closed:
		io.complete(nil)
	case io.kind >= ioFsync:
		io.flush()
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

// writeOp buffers the write when write-behind is on, flushing once the
// buffer is full, and otherwise writes through.
func (io *ioCall) writeOp() {
	h := io.h
	h.raValid = false // writes invalidate the readahead window
	if c := h.c; c.wbCapacity > 0 {
		h.appendDirty(io.off, io.size)
		c.wbDirty += io.size
		if c.wbDirty >= c.wbCapacity {
			io.flush()
			return
		}
		io.finish()
		return
	}
	io.end = io.off + io.size
	io.chunks = appendStripeChunks(io.chunks[:0], h.layout, io.off, io.size)
	io.fanOut(io.chunks, true)
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
		io.fetch = size + ra
		io.chunks = appendStripeChunks(io.chunks[:0], h.layout, off, io.fetch)
		io.fanOut(io.chunks, false)
	default:
		io.chunks = appendStripeChunks(io.chunks[:0], h.layout, off, size)
		io.fanOut(io.chunks, false)
	}
}

// launch starts chunks as parallel RPCs across OSTs — one pooled rpcCall
// per RPC, each on its own spawned event proc, O(one pooled event + a
// small struct) instead of a goroutine — counted on io.wg.
func (io *ioCall) launch(chunks []chunk, write bool) {
	h := io.h
	fs := h.c.fs
	io.write = write
	io.rpcs = fs.splitRPCs(io.rpcs[:0], chunks)
	n := len(io.rpcs)
	if cap(io.errs) < n {
		io.errs = make([]error, n)
	}
	io.errs = io.errs[:n]
	for i, rpc := range io.rpcs {
		io.wg.Add(1)
		rc := fs.rpcFree.get()
		if rc == nil {
			rc = &rpcCall{}
			rc.resumeF = rc.resume
		}
		rc.io, rc.c, rc.i = io, h.c, i
		rc.o = fs.osts[h.layout.OSTs[rpc.ostIdx]]
		rc.obj = objKey{h.path, rpc.ostIdx}
		rc.objOff, rc.size, rc.write = rpc.objOff, rpc.size, write
		rc.phase = rcStart
		rc.ep = fs.eng.SpawnEventK("rpc", -1, rc.resumeF)
	}
}

// fanOut launches chunks as parallel RPCs and resumes io once they have
// all completed.
func (io *ioCall) fanOut(chunks []chunk, write bool) {
	io.launch(chunks, write)
	io.wg.WaitE(io.ep, io.resumeF)
}

// flush writes out the handle's dirty extents (see takeDirty), or
// finishes at once when there are none.
func (io *ioCall) flush() {
	h := io.h
	if len(h.dirty) == 0 {
		io.finish()
		return
	}
	io.chunks, io.end = h.takeDirty(io.chunks[:0])
	io.fanOut(io.chunks, true)
}

// resume settles the joined fan-out: a write goes on to its size update,
// a read miss records its readahead window.
func (io *ioCall) resume() {
	h := io.h
	io.err = h.settleIO(io.rpcs, io.errs, io.write)
	if io.err == nil {
		if io.write {
			io.setSize()
			return
		}
		if io.fetch > 0 {
			h.raStart, h.raEnd, h.raValid = io.off, io.off+io.fetch, true
		}
	}
	io.finish()
}

// setSize grows the file size at the MDS to io.end (a size RPC, as Lustre
// clients batch; modeled as one metadata op), then resumes io in sized.
func (io *ioCall) setSize() {
	h := io.h
	m := h.c.newMeta(OpSetSize, h.path)
	m.end, m.io = io.end, io
	m.run(io.ep)
}

// sized finishes a write once its size update is done.
func (io *ioCall) sized(err error) {
	io.err = err
	io.finish()
}

// finish emits the operation's observer event and completes it. A close
// marks the handle closed whether or not its flush succeeded.
func (io *ioCall) finish() {
	h := io.h
	if io.kind == ioClose {
		h.closed = true
	}
	h.c.fs.observe(OpEvent{Client: h.c.node.Name(), Op: ioKindNames[io.kind], Path: h.path, Offset: io.off, Size: io.size, Start: io.start, End: io.ep.Now()})
	io.complete(io.err)
}

// complete records the outcome and, for a call with a continuation,
// recycles io and hands the outcome to it.
func (io *ioCall) complete(err error) {
	io.err = err
	if k := io.k; k != nil {
		io.recycle()
		k(err)
	}
}

func (io *ioCall) recycle() {
	fs := io.h.c.fs
	clear(io.errs)
	io.h, io.ep, io.err, io.k = nil, nil, nil, nil
	fs.ioFree.put(io)
}

// rpcCall is one OST-directed data RPC under the resilience policy, on
// its own event proc: request leg,
// then a timeout (crashed OST), an error reply (injected transient fault)
// or the device access and reply leg, with backoff between attempts. Its
// outcome lands in the owning ioCall's error slot.
type rpcCall struct {
	io      *ioCall
	c       *Client
	i       int // slot in io.errs
	ep      *des.EventProc
	o       *ost
	obj     objKey
	objOff  int64
	size    int64
	write   bool
	attempt int
	err     error
	phase   uint8
	leg     leg
	resumeF func()
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

func (rc *rpcCall) resume() {
	c, o := rc.c, rc.o
	fs := c.fs
	for {
		switch rc.phase {
		case rcStart:
			rc.send()
		case rcSend:
			if c.hopE(&rc.leg, rc.ep, rc.resumeF) {
				return
			}
			if o.down {
				rc.phase = rcTimeout
				if t := fs.cfg.Resilience.RPCTimeout; t > 0 {
					rc.ep.Wait(t, rc.resumeF)
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
			o.dev.AccessE(rc.ep, req, rc.resumeF)
			return
		case rcTimeout:
			c.stats.TimedOutRPCs++
			rc.err = fmt.Errorf("%w: ost%d", ErrOSTDown, o.id)
			rc.settle()
			return
		case rcErrReply:
			if c.hopE(&rc.leg, rc.ep, rc.resumeF) {
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
			if c.hopE(&rc.leg, rc.ep, rc.resumeF) {
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
			rc.ep.Wait(pol.backoff(c.fs.eng, rc.attempt), rc.resumeF)
			return
		}
		c.stats.FailedRPCs++
	}
	io, fs := rc.io, c.fs
	io.errs[rc.i] = rc.err
	*rc = rpcCall{resumeF: rc.resumeF}
	fs.rpcFree.put(rc)
	io.wg.Done()
}

// WriteE is the continuation form of Write, including the write-behind
// buffer: buffered writes complete synchronously and deferred flush
// errors surface on the triggering WriteE, FsyncE, or CloseE.
func (h *Handle) WriteE(ep *des.EventProc, off, size int64, k func(error)) {
	h.newIO(ioWrite, off, size, k).run(ep)
}

// ReadE is the continuation form of Read, including the readahead window.
func (h *Handle) ReadE(ep *des.EventProc, off, size int64, k func(error)) {
	h.newIO(ioRead, off, size, k).run(ep)
}

// FsyncE is the continuation form of Fsync.
func (h *Handle) FsyncE(ep *des.EventProc, k func(error)) {
	h.newIO(ioFsync, 0, 0, k).run(ep)
}

// CloseE is the continuation form of Close.
func (h *Handle) CloseE(ep *des.EventProc, k func(error)) {
	h.newIO(ioClose, 0, 0, k).run(ep)
}
