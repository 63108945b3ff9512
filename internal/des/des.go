// Package des implements a deterministic discrete-event simulation engine.
//
// The engine is process-oriented and offers two execution forms for
// simulated entities, interchangeable on one Engine:
//
//   - Goroutine procs (Spawn): entities run as goroutines that block on
//     simulation primitives (Wait, Acquire, Get). Natural sequential code;
//     each entity costs a goroutine stack. A blocking proc runs the event
//     loop itself: when it is the next to wake it just continues, with no
//     goroutine switch, and otherwise it passes the loop on to the proc
//     that is. On go1.23 and later a proc is a coroutine (iter.Pull) and
//     the loop passes through Run's goroutine by direct switches that
//     bypass the Go scheduler; on older toolchains a proc is a plain
//     goroutine and the loop passes by one channel rendezvous.
//   - Continuation procs (SpawnEvent): entities are state machines whose
//     blocking points pass an explicit continuation, a Step (WaitE-style
//     methods: Wait(d, k), Resource.AcquireE, Signal.WaitE). No goroutine,
//     stack, or channel per entity — a wake is a pooled event dispatch
//     calling the Step, over 10x cheaper than a goroutine switch — which
//     is what makes million-rank simulations affordable. A step that returns
//     without arming exactly one blocking point terminates the proc; arming
//     two panics. A state machine is its own Step, and FreeList recycles
//     its state past a burst without keeping the burst.
//
// There is one wake path. A goroutine proc hosts an EventProc, and every
// blocking primitive of the goroutine form awaits its continuation form on
// it (Proc.Await), so only EventProcs ever wait, and an operation written
// once as a state machine serves callers of both forms with the same
// events. The operation's steps run in place on whichever goroutine holds
// the event loop; only the step that completes it hands the loop to the
// proc, so an awaited operation costs at most one hand-off to the proc
// however many times it blocks. A step must therefore never call a
// goroutine-form primitive.
//
// Queue, Resource, Signal, and WaitGroup keep one waiter FIFO of
// EventProcs, linked through the waiting processes themselves, so waiting
// allocates nothing, mixed-form waiters wake in strict arrival order and
// the two forms are timing-equivalent on identical workloads. The engine
// executes exactly one process at a time and advances a virtual clock
// between events, so simulations are fully deterministic for a given seed
// and are not affected by wall-clock scheduling. ParallelGroup extends
// this across engines: conservative (CMB-style) lookahead windows step
// disjoint partitions in index order, and cross-partition events arrive in
// an order that does not depend on which partition ran first.
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
	"errors"
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
	// Exactly one of fire/eproc is set: fire is a callback, and eproc is
	// a blocked continuation process whose stored continuation the engine
	// invokes in place, no closure needed. A goroutine proc's wakes are
	// those of the EventProc it hosts (see Proc.Await).
	fire  func()
	eproc *EventProc
}

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

	// Process scheduling (see Run and runProcs): fault carries a dispatch
	// panic from a proc to Run.
	engineSwitch
	horizon Time
	fault   any

	running bool
	// switches counts event-loop hand-offs to a proc, that is resumes of a
	// suspended or new proc (see handoff), for tests; 32 bits fit beside
	// running and keep Engine in its allocation size class, and wrapping
	// is harmless.
	switches   uint32
	procs      int // live process count (both forms), for leak detection
	dispatched uint64
	rng        *StreamRNG
	tracehook  func(at Time, what string)
}

// NewEngine returns an engine with its clock at zero and an attached
// deterministic RNG seeded with seed.
func NewEngine(seed int64) *Engine {
	e := &Engine{rng: NewStreamRNG(seed)}
	e.Reset(seed)
	return e
}

// ErrLiveReset is the value a Reset panics with (wrapped, with detail)
// when the object is still in use: a running engine, an engine with live
// processes, or a resource with units held or waiters queued.
var ErrLiveReset = errors.New("des: reset of an object in use")

// Reset returns e to the state NewEngine(seed) gives: clock, sequence,
// dispatch counters at zero, no pending events, no trace hook,
// and every named stream the RNG has handed out reseeded in place to
// draw exactly what a fresh engine's stream of that name draws. Queued
// events are dropped unfired and their slots freed into the event slab,
// which Reset keeps, as it keeps the heap's and the immediate ring's
// backing arrays, so a reused engine schedules without growing them
// again. NewEngine calls Reset too: an engine has one initialization
// path.
//
// Reset keeps the engine's record of the procs SpawnOn started on it,
// so a restart after Reset is kept and Close still ends it.
//
// Reset panics with ErrLiveReset while Run is executing or while any
// process is live, since a live process would wake into the new run.
func (e *Engine) Reset(seed int64) {
	if e.running {
		panic(fmt.Errorf("%w: engine is running", ErrLiveReset))
	}
	if e.procs != 0 {
		panic(fmt.Errorf("%w: engine has %d live procs", ErrLiveReset, e.procs))
	}
	for _, he := range e.heap {
		e.freeSlot(he.idx)
	}
	for _, idx := range e.imm[e.immHead:] {
		e.freeSlot(idx)
	}
	*e = Engine{pool: e.pool, free: e.free, heap: e.heap[:0], imm: e.imm[:0], rng: e.rng, engineSwitch: e.carried()}
	e.rng.Reset(seed)
}

// Close ends the parked coroutines of the procs SpawnOn restarted on e
// (see SpawnOn), which outlive their bodies to be resumed by the next
// restart. It leaves a live proc alone, so e may run again, and the next
// restart of a proc starts a new coroutine. The owner of procs restarted
// in its own storage, such as a reused MPI world or burst buffer, calls
// it once it is done with the engine, or their goroutines outlive it.
// Close panics inside Run.
func (e *Engine) Close() { e.endProcs(false) }

// Abandon is Close for an engine that will not run again, such as one a
// panic left with live procs: it also ends the coroutine of every live
// proc SpawnOn started on e, unwinding its body from the blocking call
// it is suspended in, which runs the body's deferred calls. A deferred
// call must not recover that unwinding; one that blocks panics, as a
// blocking call from an awaited operation's step does, and so does
// Abandon. The unwound procs stay live, as a proc whose body panicked
// does. Abandon panics inside Run.
func (e *Engine) Abandon() { e.endProcs(true) }

// endProcs is Close, or Abandon if live is set.
func (e *Engine) endProcs(live bool) {
	if e.running {
		panic("des: Close or Abandon called inside Run")
	}
	e.end(live)
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
func (e *Engine) alloc(at Time, fn func()) int32 {
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
	e.seq++
	return idx
}

// freeSlot returns a slot to the freelist, dropping its references so a
// recycled slot keeps no callback or process alive.
func (e *Engine) freeSlot(idx int32) {
	ev := &e.pool[idx]
	ev.fire = nil
	ev.eproc = nil
	e.free = append(e.free, idx)
}

// schedule enqueues callback fn at absolute time at and returns its slot
// index. Same-time events scheduled during dispatch take the heap-free
// immediate path.
func (e *Engine) schedule(at Time, fn func()) int32 {
	if at < e.now {
		panic(fmt.Sprintf("des: scheduling into the past: at=%v now=%v", at, e.now))
	}
	idx := e.alloc(at, fn)
	if e.running && at == e.now {
		e.imm = append(e.imm, idx)
	} else {
		e.heapPush(idx)
	}
	return idx
}

// scheduleEP enqueues a continuation-process wake at absolute time at: the
// slot carries the process handle and the engine invokes its stored
// continuation. A hosted EventProc (see Proc.Await) is scheduled the same
// way; only the step that completes its operation hands the loop to the
// host proc.
func (e *Engine) scheduleEP(at Time, ep *EventProc) {
	idx := e.schedule(at, nil)
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

// After schedules fn to run after delay d. Callback-style scheduling; most
// code should prefer processes (Spawn) instead.
func (e *Engine) After(d Time, fn func()) {
	e.schedule(e.now+d, fn)
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
// Run dispatches on its own goroutine until a step completes an operation
// a goroutine Proc awaits (a proc's start, or the wake of any of its
// blocking calls), then hands the event loop to that proc (see runProcs);
// procs pass it on (Proc.park) until one finds the queue empty or the
// horizon reached. A panic raised by a callback or
// continuation step on a proc goroutine, an awaited operation's steps
// included, is re-raised here, so every dispatch panic surfaces from Run.
func (e *Engine) Run(horizon Time) Time {
	if e.running {
		panic("des: Run called re-entrantly")
	}
	e.running = true
	e.horizon = horizon
	defer func() { e.running = false }()
	if p := e.loop(); p != nil {
		e.runProcs(p)
		if r := e.fault; r != nil {
			e.fault = nil
			panic(r)
		}
	}
	return e.now
}

// loop dispatches callbacks and continuation wakes in place until a
// continuation step completes an operation a goroutine proc awaits
// (Proc.Await), and returns that proc. It returns nil once the queue is
// empty or the next event lies past the horizon. Steps of an awaited
// operation before its last run in place on whichever goroutine holds the
// loop, so an operation costs its host one hand-off at most, not one per
// wake.
func (e *Engine) loop() *Proc {
	for {
		idx, ok := e.next()
		if !ok {
			return nil
		}
		ev := &e.pool[idx]
		if ev.at > e.horizon {
			// Put it back for a future Run call and stop.
			e.heapPush(idx)
			e.now = e.horizon
			return nil
		}
		e.now = ev.at
		fire, eproc := ev.fire, ev.eproc
		e.freeSlot(idx)
		e.dispatched++
		if e.tracehook != nil {
			e.tracehook(e.now, "event")
		}
		if eproc == nil {
			fire()
		} else if host := eproc.enter(); host != nil {
			// The step completed an awaited operation: its host
			// proc resumes here. Any other continuation dispatch
			// runs in place with no stack switch at all.
			return host
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

// NextEventTime returns the timestamp of the earliest pending event. The
// immediate ring's entries are stamped at the current time, which no heap
// entry precedes, so its head comes first.
func (e *Engine) NextEventTime() (Time, bool) {
	if e.immHead < len(e.imm) {
		return e.pool[e.imm[e.immHead]].at, true
	}
	if len(e.heap) > 0 {
		return e.heap[0].at, true
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

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return len(e.heap) + len(e.imm) - e.immHead }

// LiveProcs reports the number of spawned processes — goroutine Procs and
// continuation EventProcs — that have not finished. A non-zero value after
// Run returns with an empty queue indicates processes blocked forever
// (deadlock in the simulated system).
func (e *Engine) LiveProcs() int { return e.procs }

// Dispatches reports the total number of events dispatched by Run; scale
// tooling uses it to report events/sec.
func (e *Engine) Dispatches() uint64 { return e.dispatched }
