package pfs

import (
	"fmt"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/netsim"
)

// This file is the continuation-form (goroutine-free) port of the client
// hot paths: every method is the E-suffixed analogue of the blocking form
// in client.go, with identical cost model, retry policy, statistics, and
// observer events. The data RPC (rpcCall) has a single implementation
// here: the goroutine-form doIO launches the same pooled rpcCalls and
// parks once to join them, so retry, backoff, timeout, transient-fault
// and degraded-read handling exist once for both forms. The other
// form-independent pieces — RPC splitting (splitRPCs), error aggregation
// (settleIO), dirty-extent gathering (takeDirty) and the MDS-side
// namespace bodies (createNS, openNS, setSizeNS) — live in client.go.
// What remains duplicated is the metadata RPC and the op bodies (write,
// read, fsync, close, create, open); a behavioural change to those must
// land in both forms. The port covers the data-plane ops a rank's
// checkpoint/read loop issues plus the meta/data RPC machinery beneath
// them; rarely-hot namespace ops (mkdir, readdir, unlink, stat) stay
// goroutine-only.
//
// Each operation in flight is a state machine — metaCall (one metadata
// RPC), ioCall (one write, read, fsync or close) or rpcCall (one data RPC)
// — whose steps all re-enter a single continuation, resume, bound once
// when the struct is first allocated. Arguments and results travel in the
// struct, and it returns to a bounded free list on its FS when its last
// step fires, so a steady-state operation allocates nothing of its own.

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
	out    bool // client to server
	hops   int  // hops issued so far
}

// hopE issues the next hop of l with continuation k and reports true, or
// reports false once every hop has completed. The route is toServer's or
// fromServer's.
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

// metaCall is one metadata RPC under the resilience policy, the
// continuation form of metaRPC: request leg, MDS queueing and service,
// namespace body, response leg, and backoff between attempts.
type metaCall struct {
	c       *Client
	ep      *des.EventProc
	op      MetaOp
	attempt int
	phase   uint8
	leg     leg

	// Namespace arguments and results.
	path        string
	stripeCount int
	stripeSize  int64
	end         int64
	layout      Layout
	err         error
	start       des.Time

	// Completion: a create or open hands kH the new handle; any other op
	// stores its error in *errp and runs k.
	kH      func(*Handle, error)
	errp    *error
	k       func()
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
	mcBackoff              // retry backoff elapsed
)

// newMeta takes a metaCall for op on path from the free list.
func (c *Client) newMeta(ep *des.EventProc, op MetaOp, path string) *metaCall {
	m := c.fs.metaFree.get()
	if m == nil {
		m = &metaCall{}
		m.resumeF = m.resume
	}
	m.c, m.ep, m.op, m.path, m.attempt = c, ep, op, path, 0
	return m
}

// metaRPCE is the continuation form of metaRPC for the namespace bodies
// metaCall applies (apply): one metadata round trip under the resilience
// policy, retrying with backoff until the budget is exhausted. The final
// error is stored in *errp, then k runs.
func (c *Client) metaRPCE(ep *des.EventProc, op MetaOp, path string, end int64, errp *error, k func()) {
	m := c.newMeta(ep, op, path)
	m.end, m.errp, m.k = end, errp, k
	m.send()
	m.resume()
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
			m.settle()
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
		m.layout, err = fs.createNS(m.path, m.stripeCount, m.stripeSize)
	case OpOpen:
		m.layout, err = fs.openNS(m.path)
	case OpSetSize:
		err = fs.setSizeNS(m.path, m.end)
	default:
		panic(fmt.Sprintf("pfs: no continuation-form body for %v", m.op))
	}
	return err
}

// settle ends an attempt: a final outcome finishes the call, a retryable
// one within budget waits out the backoff before the next attempt.
func (m *metaCall) settle() {
	c := m.c
	if m.err != nil && retryable(m.err) {
		pol := c.fs.cfg.Resilience
		if m.attempt < pol.MaxRetries {
			c.stats.Retries++
			m.phase = mcBackoff
			m.ep.Wait(pol.backoff(c.fs.eng, m.attempt), m.resumeF)
			return
		}
		c.stats.FailedRPCs++
	}
	m.finish()
}

// finish recycles m and hands its outcome on.
func (m *metaCall) finish() {
	c, err := m.c, m.err
	if kH := m.kH; kH != nil {
		c.fs.observe(OpEvent{Client: c.node.Name(), Op: m.op.String(), Path: m.path, Start: m.start, End: m.ep.Now()})
		var h *Handle
		if err == nil {
			h = &Handle{c: c, path: m.path, layout: m.layout}
		}
		m.recycle()
		kH(h, err)
		return
	}
	errp, k := m.errp, m.k
	m.recycle()
	*errp = err
	k()
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
	m := c.newMeta(ep, OpCreate, path)
	m.stripeCount, m.stripeSize, m.start, m.kH = stripeCount, stripeSize, ep.Now(), k
	m.send()
	m.resume()
}

// OpenE is the continuation form of Open.
func (c *Client) OpenE(ep *des.EventProc, path string, k func(*Handle, error)) {
	path, perr := cleanPath(path)
	if perr != nil {
		k(nil, perr)
		return
	}
	m := c.newMeta(ep, OpOpen, path)
	m.start, m.kH = ep.Now(), k
	m.send()
	m.resume()
}

// ioKind is the client operation an ioCall serves.
type ioKind uint8

const (
	ioWrite ioKind = iota
	ioRead
	ioFsync
	ioClose
)

// ioCall is one write, read, fsync or close in continuation form: the
// striped RPC fan-out as spawned rpcCall procs joined on a WaitGroup, the
// size update that follows a write, and the operation's observer event.
// The goroutine-form doIO borrows one for its fan-out alone. Its chunk,
// RPC and error slices and its WaitGroup are reused from call to call.
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
	phase uint8

	chunks, rpcs []chunk
	errs         []error
	wg           des.WaitGroup
	// Inline backing for the common one-chunk request, so a new ioCall
	// needs no separate slice allocations.
	chunk1, rpc1 [1]chunk
	err1         [1]error

	k       func(error)
	resumeF func()
}

// ioCall phases: the step that runs when the pending blocking point fires.
const (
	ioJoined uint8 = iota // every RPC of the fan-out has completed
	ioSized               // size update done
)

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
func (h *Handle) newIO(ep *des.EventProc, kind ioKind, k func(error)) *ioCall {
	io := h.c.fs.getIO()
	io.h, io.ep, io.kind, io.k, io.start = h, ep, kind, k, ep.Now()
	io.off, io.size, io.fetch, io.end = 0, 0, 0, 0
	return io
}

// launch starts chunks as parallel RPCs across OSTs — one pooled rpcCall
// per RPC, each on its own spawned event proc, O(one pooled event + a
// small struct) instead of a goroutine — counted on io.wg. The caller
// joins them: fanOut with WaitE, the goroutine-form doIO with Wait.
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
	io.phase = ioJoined
	io.wg.WaitE(io.ep, io.resumeF)
}

// flush writes out the handle's dirty extents (the continuation form of
// flush), or finishes at once when there are none.
func (io *ioCall) flush() {
	h := io.h
	if len(h.dirty) == 0 {
		io.finish()
		return
	}
	io.chunks, io.end = h.takeDirty(io.chunks[:0])
	io.fanOut(io.chunks, true)
}

func (io *ioCall) resume() {
	h := io.h
	switch io.phase {
	case ioJoined:
		io.err = h.settleIO(io.rpcs, io.errs, io.write)
		if io.err == nil {
			if io.write {
				io.phase = ioSized
				h.c.metaRPCE(io.ep, OpSetSize, h.path, io.end, &io.err, io.resumeF)
				return
			}
			if io.fetch > 0 {
				h.raStart, h.raEnd, h.raValid = io.off, io.off+io.fetch, true
			}
		}
		io.finish()
	case ioSized:
		io.finish()
	}
}

// finish emits the operation's observer event, recycles io, and hands the
// outcome to k.
func (io *ioCall) finish() {
	h, err, k := io.h, io.err, io.k
	fs := h.c.fs
	ev := OpEvent{Client: h.c.node.Name(), Path: h.path, Start: io.start, End: io.ep.Now()}
	switch io.kind {
	case ioWrite:
		ev.Op, ev.Offset, ev.Size = "write", io.off, io.size
	case ioRead:
		ev.Op, ev.Offset, ev.Size = "read", io.off, io.size
	case ioFsync:
		ev.Op = "fsync"
	case ioClose:
		h.closed = true
		ev.Op = "close"
	}
	fs.observe(ev)
	clear(io.errs)
	io.h, io.ep, io.err, io.k = nil, nil, nil, nil
	fs.ioFree.put(io)
	k(err)
}

// rpcCall is one OST-directed data RPC under the resilience policy — the
// one implementation both forms run — on its own event proc: request leg,
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
	if h.closed {
		k(fmt.Errorf("%w: write %s", ErrClosedHandle, h.path))
		return
	}
	if size <= 0 {
		k(nil)
		return
	}
	io := h.newIO(ep, ioWrite, k)
	io.off, io.size = off, size
	h.raValid = false // writes invalidate the readahead window
	if h.c.wbCapacity > 0 {
		h.appendDirty(off, size)
		h.c.wbDirty += size
		if h.c.wbDirty >= h.c.wbCapacity {
			io.flush()
			return
		}
		io.finish()
		return
	}
	io.end = off + size
	io.chunks = appendStripeChunks(io.chunks[:0], h.layout, off, size)
	io.fanOut(io.chunks, true)
}

// ReadE is the continuation form of Read, including the readahead window.
func (h *Handle) ReadE(ep *des.EventProc, off, size int64, k func(error)) {
	if h.closed {
		k(fmt.Errorf("%w: read %s", ErrClosedHandle, h.path))
		return
	}
	if size <= 0 {
		k(nil)
		return
	}
	io := h.newIO(ep, ioRead, k)
	io.off, io.size = off, size
	ra := h.c.fs.cfg.ClientReadahead
	switch {
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

// FsyncE is the continuation form of Fsync.
func (h *Handle) FsyncE(ep *des.EventProc, k func(error)) {
	h.newIO(ep, ioFsync, k).flush()
}

// CloseE is the continuation form of Close.
func (h *Handle) CloseE(ep *des.EventProc, k func(error)) {
	if h.closed {
		k(nil)
		return
	}
	h.newIO(ep, ioClose, k).flush()
}
