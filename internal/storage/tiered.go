package storage

import (
	"pioeval/internal/burstbuffer"
	"pioeval/internal/des"
	"pioeval/internal/pfs"
)

// TieredBB places an I/O-node burst buffer on the data path (the paper's
// Figure-1 tier): writes stage onto the buffer's SSD at staging speed and
// drain to the parallel file system asynchronously; reads hit the staging
// area while data is hot and fall through to the PFS otherwise. The
// namespace stays on the MDS: the embedded DirectPFS serves stat, unlink
// and the directory operations through the compute node's own PFS client,
// so tiered and direct runs see the same metadata behavior. Note that file
// sizes from Stat lag staged writes until the drainer lands them — an
// honest property of write-back tiering.
//
// Durability semantics: Fsync maps to the buffer's WaitDrained, so a file
// is durable only once its staged bytes have reached the PFS and the drain
// handles written since the buffer's last sync pass have been fsynced; a
// sync's host cost is linear in the files written since that pass, not in
// every file the buffer has opened. Drain failures (typed PFS errors that
// survived the resilience policy's retry budget) surface from Fsync as a
// *burstbuffer.DrainError.
type TieredBB struct {
	*DirectPFS
	bb *burstbuffer.Buffer
	// free recycles the handles of closed files (and of failed opens).
	free des.FreeList[tieredHandle, *tieredHandle]
}

// maxFreeHandles caps the closed handles a target keeps for reuse: a
// node's ranks rarely hold more files open at once.
const maxFreeHandles = 64

// NewTiered builds a tiered target for client c staging through bb. The
// buffer is typically shared by every client on the same I/O node; use
// Provider to get that wiring for free.
func NewTiered(c *pfs.Client, bb *burstbuffer.Buffer) *TieredBB {
	t := &TieredBB{DirectPFS: Direct(c), bb: bb}
	t.free.Init(maxFreeHandles)
	return t
}

// reset makes t the target NewTiered(c, bb) returns, keeping its closed
// handles for reuse.
func (t *TieredBB) reset(c *pfs.Client, bb *burstbuffer.Buffer) {
	t.DirectPFS, t.bb = Direct(c), bb
}

// Create creates path on the PFS namespace (so the drainer and read-through
// path can open it) and returns a handle whose data ops ride the buffer.
func (t *TieredBB) Create(p *des.Proc, path string, stripeCount int, stripeSize int64) (Handle, error) {
	h := t.free.Get()
	p.Await(func(ep *des.EventProc) { t.client().CreateE(ep, &h.ph, path, stripeCount, stripeSize, des.NoStep{}) })
	return t.opened(h)
}

// Open opens an existing PFS file for tiered access.
func (t *TieredBB) Open(p *des.Proc, path string) (Handle, error) {
	h := t.free.Get()
	p.Await(func(ep *des.EventProc) { t.client().OpenE(ep, &h.ph, path, des.NoStep{}) })
	return t.opened(h)
}

// opened returns h once its create or open has succeeded. A failed open
// leaves the PFS handle closed, so h goes straight back to the free list.
func (t *TieredBB) opened(h *tieredHandle) (Handle, error) {
	if err := h.ph.Err(); err != nil {
		t.release(h)
		return nil, err
	}
	h.t = t
	return h, nil
}

// release clears h, keeping its free-list header, and puts it back.
func (t *TieredBB) release(h *tieredHandle) {
	*h = tieredHandle{Pooled: h.Pooled}
	t.free.Put(h)
}

// tieredHandle is an open file on a TieredBB target: data ops go to the
// burst buffer, metadata sticks with the PFS handle it embeds, which the
// continuation create or open opened in place. Close returns the handle
// to its target's free list, so in steady state an open allocates
// nothing. A closed handle has no target: until an open reuses it, its
// I/O fails with ErrClosedHandle and a second Close does nothing. A
// handle opened before the file system's last Reset is stale: every
// operation on it fails with ErrStaleHandle and does nothing else, so it
// never stages into the buffer of the job after the reset.
type tieredHandle struct {
	des.Pooled
	t  *TieredBB
	ph pfs.Handle
}

// Path returns the handle's path.
func (h *tieredHandle) Path() string { return h.ph.Path() }

// check returns the error an operation on h fails with before it starts:
// ErrClosedHandle once h is closed, ErrStaleHandle once its file system
// has been reset.
func (h *tieredHandle) check() error {
	switch {
	case h.t == nil:
		return ErrClosedHandle
	case h.ph.Stale():
		return ErrStaleHandle
	}
	return nil
}

// Write stages the bytes at the burst buffer (SSD speed, backpressure when
// full) and returns as soon as they are staged; the drain to the PFS is
// asynchronous. Drain failures surface later, from Fsync.
func (h *tieredHandle) Write(p *des.Proc, off, size int64) error {
	if err := h.check(); err != nil {
		return err
	}
	h.t.bb.Write(p, h.ph.Path(), off, size)
	return nil
}

// Read serves from the staging SSD while staged data is hot, else reads
// through to the PFS via the buffer's I/O-node client.
func (h *tieredHandle) Read(p *des.Proc, off, size int64) error {
	if err := h.check(); err != nil {
		return err
	}
	return h.t.bb.Read(p, h.ph.Path(), off, size)
}

// Fsync waits until every staged byte has drained to the PFS, returning
// the accumulated drain errors if any writebacks failed for good.
func (h *tieredHandle) Fsync(p *des.Proc) error {
	if err := h.check(); err != nil {
		return err
	}
	return h.t.bb.WaitDrained(p)
}

// Close closes the metadata handle and releases h to its target's free
// list, once. Staged data keeps draining in the background; call Fsync
// first when durability is required.
func (h *tieredHandle) Close(p *des.Proc) error {
	t := h.t
	if t == nil {
		return nil
	}
	if h.ph.Stale() {
		return ErrStaleHandle
	}
	h.t = nil
	err := h.ph.Close(p)
	t.release(h)
	return err
}
