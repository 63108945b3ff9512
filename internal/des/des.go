// Package des implements a deterministic discrete-event simulation engine.
//
// The engine is process-oriented and offers two execution forms for
// simulated entities, interchangeable on one Engine:
//
//   - Goroutine procs (Spawn): entities run as goroutines that block on
//     simulation primitives (Wait, Acquire, Get). Natural sequential code;
//     each entity costs a goroutine stack. A blocking proc runs the event
//     loop itself: when it is the next to wake it just continues, with no
//     goroutine switch, and otherwise it hands the loop directly to the
//     proc that is, one channel rendezvous per switch.
//   - Continuation procs (SpawnEvent): entities are state machines whose
//     blocking points pass an explicit continuation (WaitE-style methods:
//     Wait(d, k), Queue.GetE, Resource.AcquireE). No goroutine, stack, or
//     channel per entity — a wake is a pooled event dispatch calling a
//     function pointer, over 10x cheaper than a goroutine switch — which
//     is what makes million-rank simulations affordable. A step that returns
//     without arming exactly one blocking point terminates the proc; arming
//     two panics.
//
// A goroutine proc runs a continuation-form operation through Proc.Await,
// on an EventProc it hosts, so an operation written once as a state
// machine serves callers of both forms with the same events.
//
// Both forms share every primitive: Queue, Resource, Signal, and WaitGroup
// keep one waiter FIFO, so mixed-form waiters wake in strict arrival order
// and the two forms are timing-equivalent on identical workloads. The
// engine executes exactly one process at a time and advances a virtual
// clock between events, so simulations are fully deterministic for a given
// seed and are not affected by wall-clock scheduling. ParallelGroup extends
// this across engines: conservative (CMB-style) lookahead windows let
// disjoint partitions run on concurrent workers with byte-identical results
// at any worker count.
//
// The package is the substrate for every simulator in this repository: the
// network fabric, the parallel file system, the MPI runtime, and the burst
// buffer are all built from des processes and resources.
//
// The event path is allocation-free in steady state: events live in an
// index-stable pooled slot array recycled through a freelist, ordered by an
// inlined 4-ary min-heap of slot indices, and events scheduled for the
// current timestamp during dispatch bypass the heap entirely through a FIFO
// ring. See DESIGN.md ("DES kernel internals" and "Execution forms") for
// the invariants.
package des

import (
	"fmt"
	"math"
)

// Time is simulated time in nanoseconds.
type Time int64

// Common durations in simulated time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// MaxTime is the largest representable simulation time.
const MaxTime Time = math.MaxInt64

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second || t <= -Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	case t >= Microsecond || t <= -Microsecond:
		return fmt.Sprintf("%.6gus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// FromSeconds converts floating-point seconds into simulated Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// event is a scheduled occurrence in virtual time, stored in the engine's
// pooled slot array. Slots are index-stable: the heap and the immediate
// ring reference events by pool index, and freed slots are recycled
// through a freelist, so steady-state scheduling allocates nothing.
type event struct {
	at  Time
	seq uint64 // tie-breaker for determinism: FIFO among simultaneous events
	// Exactly one of fire/proc/eproc is set: fire is a callback, proc is a
	// goroutine process the loop starts or hands off to, and eproc is a
	// blocked continuation process whose stored continuation the engine
	// invokes in place (no closure needed for either process form).
	fire  func()
	proc  *Proc
	eproc *EventProc
	// gen is bumped every time the slot is freed; cancel handles capture
	// (index, gen) so a stale cancel of a recycled slot is a no-op.
	gen uint32
	// canceled events stay queued but are skipped (and freed) when popped;
	// the heap is compacted once they outnumber live entries.
	canceled bool
}

// minCompact is the heap size below which lazy-canceled events are never
// compacted eagerly — popping them is cheaper than rebuilding.
const minCompact = 64

// heapEntry carries the ordering key next to the slot index so heap sifts
// compare within the heap array itself instead of chasing pool slots.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
}

// before reports heap ordering: earlier time first, then FIFO by sequence.
func (a heapEntry) before(b heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine drives a single simulation. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now Time
	seq uint64

	pool []event     // index-stable event slots
	free []int32     // recycled slot indices
	heap []heapEntry // 4-ary min-heap ordered by (at, seq)

	// imm is the direct-dispatch FIFO for events scheduled at the current
	// timestamp while the engine is dispatching: they never touch the
	// heap. immHead indexes the next entry; the slice is reset when
	// drained so the backing array is reused.
	imm     []int32
	immHead int

	// canceled counts lazily-canceled events still queued (heap or imm).
	canceled int

	// Process scheduling (see Run): the proc that finds nothing left before
	// horizon hands the event loop back to Run over yield; fault carries a
	// dispatch panic from a proc goroutine to Run.
	yield   chan struct{}
	horizon Time
	fault   any

	running    bool
	procs      int // live process count (both forms), for leak detection
	nextPID    int
	dispatched uint64
	rng        *StreamRNG
	tracehook  func(at Time, what string)
}

// NewEngine returns an engine with its clock at zero and an attached
// deterministic RNG seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		yield: make(chan struct{}),
		rng:   NewStreamRNG(seed),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic stream RNG.
func (e *Engine) RNG() *StreamRNG { return e.rng }

// SetTraceHook installs fn to be called on every event dispatch; used by
// tests and debug tooling. Pass nil to disable.
func (e *Engine) SetTraceHook(fn func(at Time, what string)) { e.tracehook = fn }

// alloc takes a slot from the freelist (or grows the pool) and stamps it
// with the next sequence number.
func (e *Engine) alloc(at Time, fn func(), p *Proc) int32 {
	var idx int32
	if n := len(e.free) - 1; n >= 0 {
		idx = e.free[n]
		e.free = e.free[:n]
	} else {
		e.pool = append(e.pool, event{})
		idx = int32(len(e.pool) - 1)
	}
	ev := &e.pool[idx]
	ev.at = at
	ev.seq = e.seq
	ev.fire = fn
	ev.proc = p
	e.seq++
	return idx
}

// freeSlot returns a slot to the freelist, dropping its references and
// invalidating any outstanding cancel handle.
func (e *Engine) freeSlot(idx int32) {
	ev := &e.pool[idx]
	ev.fire = nil
	ev.proc = nil
	ev.eproc = nil
	ev.canceled = false
	ev.gen++
	e.free = append(e.free, idx)
}

// schedule enqueues an occurrence at absolute time at — either callback fn
// or a direct resume of process p — and returns its slot index. Same-time
// events scheduled during dispatch take the heap-free immediate path.
func (e *Engine) schedule(at Time, fn func(), p *Proc) int32 {
	if at < e.now {
		panic(fmt.Sprintf("des: scheduling into the past: at=%v now=%v", at, e.now))
	}
	idx := e.alloc(at, fn, p)
	if e.running && at == e.now {
		e.imm = append(e.imm, idx)
	} else {
		e.heapPush(idx)
	}
	return idx
}

// scheduleEP enqueues a continuation-process wake at absolute time at. It
// is the EventProc analogue of a proc-carrying schedule: the slot carries
// the process handle and the engine invokes its stored continuation. The
// wake of a hosted EventProc (see Proc.Await) is a wake of its host proc,
// at the same (at, seq) slot, and the host runs the continuation itself.
func (e *Engine) scheduleEP(at Time, ep *EventProc) {
	if ep.host != nil {
		e.schedule(at, nil, ep.host)
		return
	}
	idx := e.schedule(at, nil, nil)
	e.pool[idx].eproc = ep
}

// heapPush inserts slot idx into the 4-ary heap.
func (e *Engine) heapPush(idx int32) {
	ev := &e.pool[idx]
	e.heap = append(e.heap, heapEntry{at: ev.at, seq: ev.seq, idx: idx})
	e.siftUp(len(e.heap) - 1)
}

// heapPop removes and returns the minimum slot index.
func (e *Engine) heapPop() int32 {
	h := e.heap
	top := h[0].idx
	n := len(h) - 1
	h[0] = h[n]
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return top
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	item := h[i]
	for i > 0 {
		pi := (i - 1) >> 2
		if h[pi].before(item) {
			break
		}
		h[i] = h[pi]
		i = pi
	}
	h[i] = item
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	item := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		last := first + 4
		if last > n {
			last = n
		}
		kids := h[first:last]
		best := 0
		bv := kids[0]
		for c := 1; c < len(kids); c++ {
			if kids[c].before(bv) {
				best, bv = c, kids[c]
			}
		}
		if item.before(bv) {
			break
		}
		h[i] = bv
		i = first + best
	}
	h[i] = item
}

// maybeCompact rebuilds the heap without canceled entries once they exceed
// half of it, bounding the memory and pop-skip cost of lazy cancellation.
func (e *Engine) maybeCompact() {
	if e.canceled < minCompact || e.canceled*2 <= len(e.heap) {
		return
	}
	kept := e.heap[:0]
	for _, he := range e.heap {
		if e.pool[he.idx].canceled {
			e.canceled--
			e.freeSlot(he.idx)
		} else {
			kept = append(kept, he)
		}
	}
	e.heap = kept
	if n := len(e.heap); n > 1 {
		for i := (n - 2) >> 2; i >= 0; i-- {
			e.siftDown(i)
		}
	}
}

// After schedules fn to run after delay d. Callback-style scheduling; most
// code should prefer processes (Spawn) instead.
func (e *Engine) After(d Time, fn func()) {
	e.schedule(e.now+d, fn, nil)
}

// AfterCancel schedules fn after delay d and returns a cancel function
// (idempotent; a no-op once the event has fired). Timeout modeling.
// Cancellation is lazy — the slot stays queued and is skipped when popped
// — with heap compaction once canceled entries exceed half the heap.
func (e *Engine) AfterCancel(d Time, fn func()) (cancel func()) {
	idx := e.schedule(e.now+d, fn, nil)
	gen := e.pool[idx].gen
	return func() {
		ev := &e.pool[idx]
		if ev.gen != gen || ev.canceled {
			return // already fired, freed, or canceled
		}
		ev.canceled = true
		ev.fire = nil // release the closure now; the slot may linger
		e.canceled++
		e.maybeCompact()
	}
}

// next selects the lowest-(at, seq) pending event: the head of the
// immediate ring, unless an earlier-scheduled heap event shares the
// current timestamp. Time never advances while the immediate ring is
// non-empty, because its entries are always stamped at the current time.
func (e *Engine) next() (int32, bool) {
	if e.immHead < len(e.imm) {
		idx := e.imm[e.immHead]
		if len(e.heap) > 0 {
			if top := e.heap[0]; top.at == e.now && top.seq < e.pool[idx].seq {
				return e.heapPop(), true
			}
		}
		e.immHead++
		if e.immHead == len(e.imm) {
			e.imm = e.imm[:0]
			e.immHead = 0
		}
		return idx, true
	}
	if len(e.heap) > 0 {
		return e.heapPop(), true
	}
	return 0, false
}

// Run executes events until the event queue empties or until the clock
// exceeds horizon (use MaxTime for no limit). It returns the final time.
//
// Run dispatches on its own goroutine until the first goroutine-Proc wake,
// then hands the event loop to that proc; procs pass it among themselves
// (Proc.block) and the last one hands it back once the queue is empty or
// the horizon is reached. A panic raised by a callback or continuation on
// a proc goroutine is re-raised here, so every dispatch panic surfaces
// from Run.
func (e *Engine) Run(horizon Time) Time {
	if e.running {
		panic("des: Run called re-entrantly")
	}
	e.running = true
	e.horizon = horizon
	defer func() { e.running = false }()
	if p := e.loop(); p != nil {
		e.handoff(p)
		<-e.yield
		if r := e.fault; r != nil {
			e.fault = nil
			panic(r)
		}
	}
	return e.now
}

// loop dispatches callbacks and continuation wakes in place until the next
// event is a goroutine-Proc wake, and returns that proc. It returns nil
// once the queue is empty or the next event lies past the horizon.
func (e *Engine) loop() *Proc {
	for {
		idx, ok := e.next()
		if !ok {
			return nil
		}
		ev := &e.pool[idx]
		if ev.canceled {
			e.canceled--
			e.freeSlot(idx)
			continue
		}
		if ev.at > e.horizon {
			// Put it back for a future Run call and stop.
			e.heapPush(idx)
			e.now = e.horizon
			return nil
		}
		e.now = ev.at
		fire, proc, eproc := ev.fire, ev.proc, ev.eproc
		e.freeSlot(idx)
		e.dispatched++
		if e.tracehook != nil {
			e.tracehook(e.now, "event")
		}
		switch {
		case proc != nil:
			return proc
		case eproc != nil:
			// Continuation dispatch: run the stored continuation in
			// place. No stack switch at all.
			eproc.enter()
		default:
			fire()
		}
	}
}

// procLoop is loop run on a proc goroutine. A panic from a dispatched
// callback or continuation is caught and stored for Run to re-raise; the
// loop then reports nil so the caller hands control back to Run. The
// dispatching proc stays blocked where it was, so a later Run can still
// wake it.
func (e *Engine) procLoop() *Proc {
	defer func() {
		if r := recover(); r != nil {
			e.fault = r
		}
	}()
	return e.loop()
}

// handoff passes the event loop to proc next, starting its goroutine at
// its first dispatch, or back to Run when next is nil.
func (e *Engine) handoff(next *Proc) {
	switch {
	case next == nil:
		e.yield <- struct{}{}
	case next.fn != nil:
		fn := next.fn
		next.fn = nil
		go next.main(fn)
	default:
		next.resume <- struct{}{}
	}
}

// NextEventTime returns the timestamp of the earliest pending event.
func (e *Engine) NextEventTime() (Time, bool) {
	for i := e.immHead; i < len(e.imm); i++ {
		if !e.pool[e.imm[i]].canceled {
			return e.pool[e.imm[i]].at, true
		}
	}
	for len(e.heap) > 0 {
		top := e.heap[0]
		if e.pool[top.idx].canceled {
			e.heapPop()
			e.canceled--
			e.freeSlot(top.idx)
			continue
		}
		return top.at, true
	}
	return 0, false
}

// AdvanceTo moves the clock forward to t without executing anything; used
// by the parallel runner to keep idle partitions in step. A t at or before
// the current time is an explicit no-op: the clock never moves backward.
// It panics if t would skip over a pending event.
func (e *Engine) AdvanceTo(t Time) {
	if t <= e.now {
		return
	}
	if at, ok := e.NextEventTime(); ok && at < t {
		panic(fmt.Sprintf("des: AdvanceTo(%v) would skip event at %v", t, at))
	}
	e.now = t
}

// Pending reports the number of scheduled (non-canceled) events.
func (e *Engine) Pending() int {
	n := 0
	for _, he := range e.heap {
		if !e.pool[he.idx].canceled {
			n++
		}
	}
	for i := e.immHead; i < len(e.imm); i++ {
		if !e.pool[e.imm[i]].canceled {
			n++
		}
	}
	return n
}

// LiveProcs reports the number of spawned processes — goroutine Procs and
// continuation EventProcs — that have not finished. A non-zero value after
// Run returns with an empty queue indicates processes blocked forever
// (deadlock in the simulated system).
func (e *Engine) LiveProcs() int { return e.procs }

// Dispatches reports the total number of events dispatched by Run; scale
// tooling uses it to report events/sec.
func (e *Engine) Dispatches() uint64 { return e.dispatched }
