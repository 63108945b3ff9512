// Package burstbuffer models the I/O-node burst-buffer tier of Figure 1:
// a fast SSD staging area close to the compute nodes that absorbs bursty
// writes (checkpoints) at SSD speed and drains them asynchronously to the
// parallel file system, decoupling client-perceived bandwidth from the
// slower backing storage.
package burstbuffer

import (
	"errors"
	"fmt"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/pfs"
)

// DrainError reports staged segments whose PFS writeback failed for good
// (after the drain client's retry budget): the staged bytes are lost. It
// unwraps to the last underlying fault (usually a typed PFS error such as
// ErrOSTDown), so errors.Is classification works through it.
type DrainError struct {
	// Node is the buffer's network node name.
	Node string
	// Segments counts failed drain operations.
	Segments uint64
	// Bytes is the total staged payload those segments carried.
	Bytes int64
	// Last is the most recent underlying failure.
	Last error
}

// Error implements error.
func (e *DrainError) Error() string {
	return fmt.Sprintf("burstbuffer %s: %d drain segments (%d bytes) lost: %v",
		e.Node, e.Segments, e.Bytes, e.Last)
}

// Unwrap exposes the underlying fault.
func (e *DrainError) Unwrap() error { return e.Last }

// Config describes one burst-buffer node. The zero value selects an
// NVMe-backed buffer: 4 GiB, depth 8, one drain worker.
type Config struct {
	// Device constructs the staging media model (default NVMe).
	Device func() blockdev.Model
	// QueueDepth is the staging device's concurrency.
	QueueDepth int
	// Capacity is the staging capacity in bytes; writers block when the
	// buffer is full (backpressure) until the drainer frees space.
	Capacity int64
	// DrainWorkers is the number of concurrent drain streams to the PFS
	// (default 1).
	DrainWorkers int
}

func (c Config) withDefaults() Config {
	if c.Device == nil {
		c.Device = func() blockdev.Model { return blockdev.DefaultNVMe() }
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.Capacity <= 0 {
		c.Capacity = 4 << 30
	}
	if c.DrainWorkers <= 0 {
		c.DrainWorkers = 1
	}
	return c
}

// segment is one staged write awaiting drain. The zero segment (size 0)
// is the drain-worker shutdown sentinel; real staged writes always have
// size > 0.
type segment struct {
	path string
	off  int64
	size int64
}

// Buffer is a burst-buffer node: clients write through it at staging
// speed; a background drainer moves segments to the PFS.
type Buffer struct {
	eng  *des.Engine
	fs   *pfs.FS
	cfg  Config
	node string
	dev  *blockdev.Device

	used     int64
	pending  *des.Queue[segment]
	notFull  des.Signal
	idle     des.Signal
	inFlight int

	// procs are the drain workers, loop their body (drainLoop, bound
	// once); Reset restarts them in place.
	procs []des.Proc
	loop  func(p *des.Proc)

	// The drainer's own PFS identity. Its handles are carved from slab,
	// which holds the ones not yet handed out; spare holds closed or
	// stale handles (an open that failed, the handles of the run before
	// a Reset), kept for the next opens.
	drainClient *pfs.Client
	handles     map[string]*pfs.Handle
	slab        []pfs.Handle
	spare       []*pfs.Handle

	// Statistics.
	absorbed  int64
	drained   int64
	peakUsed  int64
	stalls    uint64
	bufReads  int64
	missReads int64
	// drainErrors counts drain-side PFS writes that failed after the
	// client's retry budget; the staged data is dropped (lost burst).
	drainErrors  uint64
	lostBytes    int64
	lastDrainErr error
	// readErrors counts read-through misses that failed on the PFS side.
	readErrors  uint64
	lastReadErr error
}

// New creates a burst buffer named node (registered as a PFS compute-fabric
// client for drain traffic) and starts its drain workers.
func New(e *des.Engine, fs *pfs.FS, node string, cfg Config) *Buffer {
	cfg = cfg.withDefaults()
	// The drain queue and workers are named bb.<node>.drain, the staging
	// device bb.<node>.
	drain := "bb." + node + ".drain"
	b := &Buffer{
		eng: e, fs: fs, cfg: cfg, node: node,
		dev:     blockdev.NewDevice(e, drain[:len(drain)-len(".drain")], cfg.Device(), cfg.QueueDepth),
		pending: des.NewQueue[segment](e, drain),
		procs:   make([]des.Proc, cfg.DrainWorkers),
		handles: make(map[string]*pfs.Handle),
	}
	b.loop = b.drainLoop
	b.start()
	return b
}

// Reset makes b what New returns, on its engine and file system once
// both have been reset (des.Engine.Reset, pfs.FS.Reset): nothing staged,
// every statistic zero and the staging device idle. The drain client is
// taken again (pfs.FS.NewClient) and the drain workers start again in
// the procs they ran in, at the call, as New takes and starts them; the
// drain handles of the last run, stale now, are kept for the next opens
// to reuse. It panics with des.ErrLiveReset while bytes are staged.
func (b *Buffer) Reset() {
	if b.used > 0 || b.pending.Len() > 0 {
		panic(fmt.Errorf("%w: burst buffer %s has %d bytes staged", des.ErrLiveReset, b.node, b.used))
	}
	b.dev.Reset()
	for path, h := range b.handles {
		b.spare = append(b.spare, h)
		delete(b.handles, path)
	}
	*b = Buffer{
		eng: b.eng, fs: b.fs, cfg: b.cfg, node: b.node, dev: b.dev, pending: b.pending,
		procs: b.procs, loop: b.loop,
		handles: b.handles, slab: b.slab, spare: b.spare,
	}
	b.start()
}

// start takes the drain client and starts the drain workers.
func (b *Buffer) start() {
	b.drainClient = b.fs.NewClient(b.node)
	for i := range b.procs {
		b.eng.SpawnOn(&b.procs[i], b.pending.Name(), i, b.loop)
	}
}

// Node returns the buffer's network node name.
func (b *Buffer) Node() string { return b.node }

// drainLoop pulls staged segments and writes them to the PFS.
func (b *Buffer) drainLoop(p *des.Proc) {
	for {
		seg := b.pending.Get(p)
		if seg.size == 0 {
			return // shutdown sentinel
		}
		b.inFlight++
		var err error
		h := b.handles[seg.path]
		if h == nil {
			h, err = b.openDrain(p, seg.path, true)
		}
		// Read the staged data off the SSD, then push it to the PFS.
		b.dev.Access(p, blockdev.Request{Offset: seg.off, Size: seg.size})
		if err == nil {
			err = h.Write(p, seg.off, seg.size)
		}
		if err != nil {
			// The segment is gone from staging but never reached the PFS:
			// account it as lost, never as drained.
			b.drainErrors++
			b.lostBytes += seg.size
			b.lastDrainErr = err
		} else {
			b.drained += seg.size
		}
		b.used -= seg.size
		b.inFlight--
		b.notFull.Fire()
		if b.used == 0 && b.pending.Len() == 0 && b.inFlight == 0 {
			b.idle.Fire()
		}
	}
}

// drainSlab is the number of drain handles the buffer carves at once.
const drainSlab = 64

// openDrain opens path on the drainer's client, or creates it when create
// is set and the open failed (opening it after all when another worker
// created it first), and records the handle. The handle is taken
// before the open blocks, so drain workers opening at once never share
// one.
func (b *Buffer) openDrain(p *des.Proc, path string, create bool) (*pfs.Handle, error) {
	var h *pfs.Handle
	if n := len(b.spare) - 1; n >= 0 {
		h, b.spare = b.spare[n], b.spare[:n]
	} else {
		if len(b.slab) == 0 {
			b.slab = make([]pfs.Handle, drainSlab)
		}
		h, b.slab = &b.slab[0], b.slab[1:]
	}
	open := func(ep *des.EventProc) { b.drainClient.OpenE(ep, h, path, des.NoStep{}) }
	p.Await(open)
	if h.Err() != nil && create {
		p.Await(func(ep *des.EventProc) { b.drainClient.CreateE(ep, h, path, 0, 0, des.NoStep{}) })
		if errors.Is(h.Err(), pfs.ErrExist) {
			// Another drain worker created path while this one waited.
			p.Await(open)
		}
	}
	if err := h.Err(); err != nil {
		// A failed open leaves the handle closed, so it can be reused.
		b.spare = append(b.spare, h)
		return nil, err
	}
	b.handles[path] = h
	return h, nil
}

// Shutdown stops the drain workers after the queue empties. Call from a
// process after WaitDrained if a clean stop is needed; otherwise workers
// simply persist until the simulation ends.
func (b *Buffer) Shutdown() {
	for i := 0; i < b.cfg.DrainWorkers; i++ {
		b.pending.Put(segment{})
	}
}

// Write stages size bytes for path at the buffer: the caller pays SSD time
// (plus backpressure wait when full) and returns as soon as the data is
// staged; draining to the PFS proceeds asynchronously.
func (b *Buffer) Write(p *des.Proc, path string, off, size int64) {
	if size <= 0 {
		return
	}
	for b.used+size > b.cfg.Capacity {
		b.stalls++
		b.notFull.Wait(p)
	}
	b.used += size
	if b.used > b.peakUsed {
		b.peakUsed = b.used
	}
	b.dev.Access(p, blockdev.Request{Offset: off, Size: size, Write: true})
	b.absorbed += size
	b.pending.Put(segment{path: path, off: off, size: size})
}

// Read serves size bytes for path: from the staging SSD when the data has
// not fully drained yet (fast path), otherwise reads through to the PFS,
// returning any PFS-side failure (typed, so errors.Is classification works).
func (b *Buffer) Read(p *des.Proc, path string, off, size int64) error {
	if size <= 0 {
		return nil
	}
	if b.used > 0 {
		b.bufReads += size
		b.dev.Access(p, blockdev.Request{Offset: off, Size: size})
		return nil
	}
	b.missReads += size
	h := b.handles[path]
	if h == nil {
		var err error
		if h, err = b.openDrain(p, path, false); err != nil {
			b.readErrors++
			b.lastReadErr = err
			return err
		}
	}
	if err := h.Read(p, off, size); err != nil {
		b.readErrors++
		b.lastReadErr = err
		return err
	}
	return nil
}

// WaitDrained blocks the calling process until all staged data has either
// reached the PFS or been declared lost. A drain write is durable on the
// OSTs once it completes (the PFS client buffers nothing), so no fsync
// follows. It returns a *DrainError summarizing any writebacks that
// failed for good — the error is sticky: once a segment is lost, every
// later WaitDrained reports it.
func (b *Buffer) WaitDrained(p *des.Proc) error {
	for b.used > 0 || b.pending.Len() > 0 || b.inFlight > 0 {
		b.idle.Wait(p)
	}
	if b.drainErrors > 0 {
		return &DrainError{
			Node: b.node, Segments: b.drainErrors, Bytes: b.lostBytes,
			Last: b.lastDrainErr,
		}
	}
	return nil
}

// Stats is a snapshot of buffer counters.
type Stats struct {
	Absorbed  int64
	Drained   int64
	Used      int64
	PeakUsed  int64
	Stalls    uint64
	BufReads  int64
	MissReads int64
	// DrainErrors counts staged segments lost to failed PFS writebacks.
	DrainErrors uint64
	// LostBytes is the staged payload those failed segments carried.
	LostBytes int64
	// LastDrainError is the most recent drain failure (nil when clean).
	LastDrainError error
	// ReadErrors counts read-through misses that failed on the PFS side.
	ReadErrors uint64
	// LastReadError is the most recent read-through failure (nil when clean).
	LastReadError error
}

// Stats returns a snapshot of the buffer counters.
func (b *Buffer) Stats() Stats {
	return Stats{
		Absorbed: b.absorbed, Drained: b.drained, Used: b.used,
		PeakUsed: b.peakUsed, Stalls: b.stalls,
		BufReads: b.bufReads, MissReads: b.missReads,
		DrainErrors: b.drainErrors, LostBytes: b.lostBytes, LastDrainError: b.lastDrainErr,
		ReadErrors: b.readErrors, LastReadError: b.lastReadErr,
	}
}
