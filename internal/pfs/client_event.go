package pfs

import (
	"fmt"

	"pioeval/internal/des"
)

// This file is the continuation-form (goroutine-free) port of the client
// hot paths: every method is the E-suffixed analogue of the blocking form
// in client.go, with identical cost model, retry policy, statistics, and
// observer events. The form-independent pieces — RPC splitting
// (splitRPCs), error aggregation (settleIO), dirty-extent gathering
// (takeDirty) and the MDS-side namespace bodies (createOp, openOp,
// setSizeOp) — live in client.go and serve both forms; any other
// behavioural change must land in both. The port covers the data-plane
// ops a rank's checkpoint/read loop issues (create, open, write, read,
// fsync, close) plus the meta/data RPC machinery beneath them; rarely-hot
// namespace ops (mkdir, readdir, unlink, stat) stay goroutine-only.

// toServerE is the continuation form of toServer.
func (c *Client) toServerE(ep *des.EventProc, server string, size int64, k func()) {
	if c.ionode != "" {
		c.fs.compute.TransferE(ep, c.node, c.ionode, size, func() {
			c.fs.storage.TransferE(ep, c.ionode, server, size, k)
		})
	} else {
		c.fs.compute.TransferE(ep, c.node, server, size, k)
	}
}

// fromServerE is the continuation form of fromServer.
func (c *Client) fromServerE(ep *des.EventProc, server string, size int64, k func()) {
	if c.ionode != "" {
		c.fs.storage.TransferE(ep, server, c.ionode, size, func() {
			c.fs.compute.TransferE(ep, c.ionode, c.node, size, k)
		})
	} else {
		c.fs.compute.TransferE(ep, server, c.node, size, k)
	}
}

// metaRPCE is the continuation form of metaRPC: one metadata round trip
// under the resilience policy, retrying with backoff until the budget is
// exhausted; the final error is handed to k.
func (c *Client) metaRPCE(ep *des.EventProc, op MetaOp, fn func() error, k func(error)) {
	c.metaAttemptE(ep, op, fn, 0, k)
}

func (c *Client) metaAttemptE(ep *des.EventProc, op MetaOp, fn func() error, attempt int, k func(error)) {
	pol := c.fs.cfg.Resilience
	c.stats.MetaRPCs++
	c.stats.BytesSent += metaReqSize
	c.toServerE(ep, c.fs.mds.node, metaReqSize, func() {
		settle := func(err error) {
			if err == nil || !retryable(err) {
				k(err)
				return
			}
			if attempt >= pol.MaxRetries {
				c.stats.FailedRPCs++
				k(err)
				return
			}
			c.stats.Retries++
			ep.Wait(pol.backoff(c.fs.eng, attempt), func() {
				c.metaAttemptE(ep, op, fn, attempt+1, k)
			})
		}
		if c.fs.mds.down {
			// No response: the RPC dies on the simulated timeout.
			timedOut := func() {
				c.stats.TimedOutRPCs++
				settle(ErrMDSUnavailable)
			}
			if pol.RPCTimeout > 0 {
				ep.Wait(pol.RPCTimeout, timedOut)
			} else {
				timedOut()
			}
			return
		}
		c.fs.mdsExecE(ep, op, fn, func(err error) {
			c.stats.BytesRecv += metaRespSize
			c.fromServerE(ep, c.fs.mds.node, metaRespSize, func() { settle(err) })
		})
	})
}

// CreateE is the continuation form of Create: the new handle (or error)
// is handed to k.
func (c *Client) CreateE(ep *des.EventProc, path string, stripeCount int, stripeSize int64, k func(*Handle, error)) {
	path, perr := cleanPath(path)
	if perr != nil {
		k(nil, perr)
		return
	}
	start := ep.Now()
	var layout Layout
	c.metaRPCE(ep, OpCreate, c.createOp(path, stripeCount, stripeSize, &layout), func(err error) {
		c.fs.observe(OpEvent{Client: c.node, Op: "create", Path: path, Start: start, End: ep.Now()})
		if err != nil {
			k(nil, err)
			return
		}
		k(&Handle{c: c, path: path, layout: layout}, nil)
	})
}

// OpenE is the continuation form of Open.
func (c *Client) OpenE(ep *des.EventProc, path string, k func(*Handle, error)) {
	path, perr := cleanPath(path)
	if perr != nil {
		k(nil, perr)
		return
	}
	start := ep.Now()
	var layout Layout
	c.metaRPCE(ep, OpOpen, c.openOp(path, &layout), func(err error) {
		c.fs.observe(OpEvent{Client: c.node, Op: "open", Path: path, Start: start, End: ep.Now()})
		if err != nil {
			k(nil, err)
			return
		}
		k(&Handle{c: c, path: path, layout: layout}, nil)
	})
}

// dataRPCE is the continuation form of dataRPC: one OST-directed transfer
// under the resilience policy.
func (c *Client) dataRPCE(ep *des.EventProc, o *ost, obj string, objOff, size int64, write bool, k func(error)) {
	c.dataAttemptE(ep, o, obj, objOff, size, write, 0, k)
}

func (c *Client) dataAttemptE(ep *des.EventProc, o *ost, obj string, objOff, size int64, write bool, attempt int, k func(error)) {
	pol := c.fs.cfg.Resilience
	c.tryDataRPCE(ep, o, obj, objOff, size, write, func(err error) {
		if err == nil || !retryable(err) {
			k(err)
			return
		}
		if attempt >= pol.MaxRetries {
			c.stats.FailedRPCs++
			k(err)
			return
		}
		c.stats.Retries++
		ep.Wait(pol.backoff(c.fs.eng, attempt), func() {
			c.dataAttemptE(ep, o, obj, objOff, size, write, attempt+1, k)
		})
	})
}

// tryDataRPCE is the continuation form of tryDataRPC: a single attempt.
func (c *Client) tryDataRPCE(ep *des.EventProc, o *ost, obj string, objOff, size int64, write bool, k func(error)) {
	fs := c.fs
	served := func() {
		if o.down {
			timedOut := func() {
				c.stats.TimedOutRPCs++
				k(fmt.Errorf("%w: ost%d", ErrOSTDown, o.id))
			}
			if pol := fs.cfg.Resilience; pol.RPCTimeout > 0 {
				ep.Wait(pol.RPCTimeout, timedOut)
			} else {
				timedOut()
			}
			return
		}
		if r := fs.transientRate; r > 0 && fs.eng.RNG().Stream("pfs.transient").Float64() < r {
			c.stats.BytesRecv += dataReqSize
			c.fromServerE(ep, o.ossNode, dataReqSize, func() { // error reply
				k(fmt.Errorf("%w: ost%d %s@%d+%d", ErrIO, o.id, obj, objOff, size))
			})
			return
		}
		o.accessE(ep, obj, objOff, size, write, func() {
			if fs.ostObserver != nil {
				fs.ostObserver(OSTEvent{OST: o.id, Size: size, Write: write, At: ep.Now()})
			}
			if write {
				c.stats.BytesRecv += dataReqSize
				c.fromServerE(ep, o.ossNode, dataReqSize, func() { k(nil) }) // ack
			} else {
				c.stats.BytesRecv += size
				c.fromServerE(ep, o.ossNode, size, func() { k(nil) })
			}
		})
	}
	if write {
		c.stats.WriteRPCs++
		c.stats.BytesSent += size
		c.toServerE(ep, o.ossNode, size, served)
	} else {
		c.stats.ReadRPCs++
		c.stats.BytesSent += dataReqSize
		c.toServerE(ep, o.ossNode, dataReqSize, served)
	}
}

// doIOE is the continuation form of doIO: the chunks of one request run
// in parallel across OSTs as spawned event procs — O(one pooled event +
// small struct) each instead of a goroutine — joined on a WaitGroup, and
// the aggregated error is handed to k.
func (h *Handle) doIOE(ep *des.EventProc, chunks []chunk, write bool, k func(error)) {
	fs := h.c.fs
	rpcs := fs.splitRPCs(chunks)
	errs := make([]error, len(rpcs))
	wg := des.NewWaitGroup(ep.Engine())
	for i, rpc := range rpcs {
		i, rpc := i, rpc
		wg.Add(1)
		ep.Engine().SpawnEvent("rpc", func(q *des.EventProc) {
			o := fs.osts[h.layout.OSTs[rpc.ostIdx]]
			obj := fmt.Sprintf("%s#%d", h.path, rpc.ostIdx)
			h.c.dataRPCE(q, o, obj, rpc.objOff, rpc.size, write, func(err error) {
				errs[i] = err
				wg.Done()
			})
		})
	}
	wg.WaitE(ep, func() { k(h.settleIO(rpcs, errs, write)) })
}

// updateSizeE is the continuation form of updateSize.
func (h *Handle) updateSizeE(ep *des.EventProc, end int64, k func(error)) {
	h.c.metaRPCE(ep, OpSetSize, h.setSizeOp(end), k)
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
	start := ep.Now()
	h.raValid = false // writes invalidate the readahead window
	done := func(err error) {
		h.c.fs.observe(OpEvent{Client: h.c.node, Op: "write", Path: h.path, Offset: off, Size: size, Start: start, End: ep.Now()})
		k(err)
	}
	if h.c.wbCapacity > 0 {
		h.appendDirty(off, size)
		h.c.wbDirty += size
		if h.c.wbDirty >= h.c.wbCapacity {
			h.flushE(ep, done)
			return
		}
		done(nil)
		return
	}
	h.doIOE(ep, stripeChunks(h.layout, off, size), true, func(err error) {
		if err != nil {
			done(err)
			return
		}
		h.updateSizeE(ep, off+size, done)
	})
}

// flushE is the continuation form of flush.
func (h *Handle) flushE(ep *des.EventProc, k func(error)) {
	if len(h.dirty) == 0 {
		k(nil)
		return
	}
	chunks, maxEnd := h.takeDirty()
	h.doIOE(ep, chunks, true, func(err error) {
		if err != nil {
			k(err)
			return
		}
		h.updateSizeE(ep, maxEnd, k)
	})
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
	start := ep.Now()
	done := func(err error) {
		h.c.fs.observe(OpEvent{Client: h.c.node, Op: "read", Path: h.path, Offset: off, Size: size, Start: start, End: ep.Now()})
		k(err)
	}
	ra := h.c.fs.cfg.ClientReadahead
	switch {
	case ra > 0 && h.raValid && off >= h.raStart && off+size <= h.raEnd:
		// Cache hit: served from client memory at zero simulated cost.
		done(nil)
	case ra > 0:
		fetch := size + ra
		h.doIOE(ep, stripeChunks(h.layout, off, fetch), false, func(err error) {
			if err == nil {
				h.raStart, h.raEnd, h.raValid = off, off+fetch, true
			}
			done(err)
		})
	default:
		h.doIOE(ep, stripeChunks(h.layout, off, size), false, done)
	}
}

// FsyncE is the continuation form of Fsync.
func (h *Handle) FsyncE(ep *des.EventProc, k func(error)) {
	start := ep.Now()
	h.flushE(ep, func(err error) {
		h.c.fs.observe(OpEvent{Client: h.c.node, Op: "fsync", Path: h.path, Start: start, End: ep.Now()})
		k(err)
	})
}

// CloseE is the continuation form of Close.
func (h *Handle) CloseE(ep *des.EventProc, k func(error)) {
	if h.closed {
		k(nil)
		return
	}
	start := ep.Now()
	h.flushE(ep, func(err error) {
		h.closed = true
		h.c.fs.observe(OpEvent{Client: h.c.node, Op: "close", Path: h.path, Start: start, End: ep.Now()})
		k(err)
	})
}
