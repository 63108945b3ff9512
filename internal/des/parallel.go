package des

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
)

// ParallelGroup executes several independent engines (logical partitions,
// "shards") concurrently under conservative synchronization — the classic
// CMB-style parallel-discrete-event contract: cross-partition interactions
// must carry at least one lookahead of latency, so no cross event can land
// inside the window that emits it. Results are bit-identical to a
// sequential execution at any worker count.
//
// The coupling layer is built for throughput:
//
//   - Persistent workers, epoch barrier. Shards are pinned to long-lived
//     workers for the duration of a Run; each window ("epoch") costs one
//     channel wake per worker and one atomic countdown, not a goroutine
//     spawn and a sync.WaitGroup.
//   - Sharded mailboxes. Send appends to a per-(sender, destination) lane
//     owned by the sender's worker — no global mutex, no allocation in
//     steady state. Lanes are flushed between epochs and merged
//     per-destination in deterministic (at, from, seq) order on reusable
//     scratch buffers.
//   - One uniform window. Every epoch ends at the earliest next-work bound
//     over all shards plus the group lookahead (capped at the horizon);
//     every shard executes up to that one time.
//   - Cached next-event times. The per-epoch scan reads cached bounds
//     refreshed only for shards that executed or received messages; idle
//     engines are not re-queried every window.
type ParallelGroup struct {
	engines   []*Engine
	n         int
	lookahead Time
	workers   int

	// lanes[from*n+to] buffers cross events; a lane is written only by the
	// worker executing shard `from` (or by the caller between Runs) and
	// drained only by the coordinator between epochs, so no lock is needed.
	// laneSeq[from] orders a sender's messages; per-sender sequences make
	// the (at, from, seq) merge key deterministic at any worker count.
	lanes   [][]crossEvent
	laneSeq []uint64

	// pend[to] holds flushed-but-undeliverable cross events per
	// destination; pendMin[to] caches the earliest pending timestamp.
	// scratch is the reusable per-delivery merge buffer.
	pend    [][]crossEvent
	pendMin []Time
	scratch []crossEvent

	// locNext caches each engine's next-event time (MaxTime when idle);
	// winEnd is the current epoch's window end, shared by every shard.
	locNext []Time
	winEnd  Time

	windows uint64

	// Worker pool, live only inside Run: startCh wakes each worker for one
	// epoch, remaining counts unfinished participants, doneCh signals the
	// coordinator, panics carries a recovered per-slot panic out of the
	// pool so Run can rethrow it after the barrier.
	startCh   []chan struct{}
	doneCh    chan struct{}
	remaining atomic.Int32
	panics    []any
}

// crossEvent is a pending cross-partition event.
type crossEvent struct {
	at   Time
	from int32
	seq  uint64
	fn   func()
}

// NewParallelGroup couples engines with the given lookahead (> 0): the
// minimum delay of every cross-partition Send, self-sends included.
func NewParallelGroup(lookahead Time, engines ...*Engine) *ParallelGroup {
	if lookahead <= 0 {
		panic("des: parallel lookahead must be positive")
	}
	if len(engines) == 0 {
		panic("des: parallel group needs at least one engine")
	}
	n := len(engines)
	g := &ParallelGroup{
		engines:   engines,
		n:         n,
		lookahead: lookahead,
		lanes:     make([][]crossEvent, n*n),
		laneSeq:   make([]uint64, n),
		pend:      make([][]crossEvent, n),
		pendMin:   make([]Time, n),
		locNext:   make([]Time, n),
	}
	for i := range g.pendMin {
		g.pendMin[i] = MaxTime
	}
	return g
}

// Engine returns partition i's engine.
func (g *ParallelGroup) Engine(i int) *Engine { return g.engines[i] }

// Lookahead returns the group's lookahead.
func (g *ParallelGroup) Lookahead() Time { return g.lookahead }

// Windows reports how many lookahead windows (epochs) Run has executed;
// scale tooling uses it to show how coarsely the group synchronizes.
func (g *ParallelGroup) Windows() uint64 { return g.windows }

// SetWorkers bounds how many OS workers execute shards within an epoch:
// 1 runs shards sequentially in index order on the caller, n <= 0 (the
// default) uses min(len(engines), runtime.NumCPU()), and explicit values
// are capped at the shard count. Shards are pinned round-robin to workers
// for a whole Run. The choice never affects results — epochs are
// barrier-synchronized and shards within an epoch are independent — so any
// worker count must produce identical output; tests and the -race sweep
// smoke rely on that.
func (g *ParallelGroup) SetWorkers(n int) { g.workers = n }

// Workers reports the worker count a Run would use right now: the
// SetWorkers value resolved against the host core count and the shard
// count. Reports quote this rather than the raw configuration knob.
func (g *ParallelGroup) Workers() int { return g.effectiveWorkers() }

func (g *ParallelGroup) effectiveWorkers() int {
	w := g.workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > g.n {
		w = g.n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Send schedules fn to run on partition `to` after delay `delay` measured
// from partition `from`'s current time. The delay must be at least the
// group lookahead — that is what makes conservative windowed execution
// correct. Call it from code executing on partition `from` (event handlers
// and processes of that engine, or any code while the group is not
// running); the lane it appends to is owned by the sender's worker, which
// is what makes the path lock- and allocation-free in steady state.
func (g *ParallelGroup) Send(from, to int, delay Time, fn func()) {
	if to < 0 || to >= g.n || from < 0 || from >= g.n {
		panic("des: cross-partition index out of range")
	}
	if delay < g.lookahead {
		panic(fmt.Sprintf("des: cross-partition delay %v below lookahead %v", delay, g.lookahead))
	}
	lane := &g.lanes[from*g.n+to]
	*lane = append(*lane, crossEvent{
		at:   g.engines[from].Now() + delay,
		from: int32(from),
		seq:  g.laneSeq[from],
		fn:   fn,
	})
	g.laneSeq[from]++
}

// flushLanes moves every buffered cross event into its destination's
// pending list, maintaining pendMin. Runs on the coordinator between
// epochs, when all lanes are quiescent.
func (g *ParallelGroup) flushLanes() {
	for i := range g.lanes {
		lane := g.lanes[i]
		if len(lane) == 0 {
			continue
		}
		to := i % g.n
		g.pend[to] = append(g.pend[to], lane...)
		for k := range lane {
			if lane[k].at < g.pendMin[to] {
				g.pendMin[to] = lane[k].at
			}
		}
		g.lanes[i] = lane[:0]
	}
}

// deliver schedules destination d's due cross events (at <= winEnd) in
// deterministic (at, from, seq) order, compacting the pending list in
// place and reusing the group scratch buffer: zero steady-state
// allocations.
func (g *ParallelGroup) deliver(d int) {
	pend := g.pend[d]
	scratch := g.scratch[:0]
	keep := pend[:0]
	we := g.winEnd
	newMin := MaxTime
	for i := range pend {
		if pend[i].at <= we {
			scratch = append(scratch, pend[i])
		} else {
			if pend[i].at < newMin {
				newMin = pend[i].at
			}
			keep = append(keep, pend[i])
		}
	}
	g.pend[d] = keep
	g.pendMin[d] = newMin
	slices.SortFunc(scratch, func(a, b crossEvent) int {
		switch {
		case a.at != b.at:
			if a.at < b.at {
				return -1
			}
			return 1
		case a.from != b.from:
			return int(a.from) - int(b.from)
		case a.seq < b.seq:
			return -1
		default:
			return 1
		}
	})
	e := g.engines[d]
	for i := range scratch {
		e.schedule(scratch[i].at, scratch[i].fn)
		scratch[i].fn = nil
	}
	if len(scratch) > 0 && scratch[0].at < g.locNext[d] {
		g.locNext[d] = scratch[0].at
	}
	g.scratch = scratch[:0]
}

// satAdd is a+b saturating at MaxTime (both operands non-negative).
func satAdd(a, b Time) Time {
	if s := a + b; s >= a {
		return s
	}
	return MaxTime
}

// cacheNext refreshes shard s's next-event cache from its engine.
func (g *ParallelGroup) cacheNext(s int) {
	if at, ok := g.engines[s].NextEventTime(); ok {
		g.locNext[s] = at
	} else {
		g.locNext[s] = MaxTime
	}
}

// runShard executes one shard's window: run to the window end, refresh the
// next-event cache, and keep the clock in step (never advancing to an
// unbounded window end, so a saturated window leaves the clock on the
// shard's last event).
func (g *ParallelGroup) runShard(s int) {
	we := g.winEnd
	e := g.engines[s]
	if g.locNext[s] <= we {
		e.Run(we)
		g.cacheNext(s)
	}
	if we < MaxTime {
		e.AdvanceTo(we)
	}
}

// runSpan executes every shard pinned to the given worker slot, capturing
// a panic so the epoch barrier still completes; Run rethrows it.
func (g *ParallelGroup) runSpan(slot, stride int) {
	defer func() {
		if r := recover(); r != nil {
			g.panics[slot] = r
		}
	}()
	for s := slot; s < g.n; s += stride {
		g.runShard(s)
	}
}

// workerLoop is one persistent pool worker: each receive is one epoch.
func (g *ParallelGroup) workerLoop(slot, stride int) {
	for range g.startCh[slot] {
		g.runSpan(slot, stride)
		if g.remaining.Add(-1) == 0 {
			g.doneCh <- struct{}{}
		}
	}
}

// startPool launches w-1 persistent workers (the coordinator itself takes
// the last slot) and stopPool shuts them down; both bracket one Run.
func (g *ParallelGroup) startPool(w int) {
	g.startCh = make([]chan struct{}, w-1)
	g.doneCh = make(chan struct{}, 1)
	g.panics = make([]any, w)
	for slot := range g.startCh {
		g.startCh[slot] = make(chan struct{}, 1)
		go g.workerLoop(slot, w)
	}
}

func (g *ParallelGroup) stopPool() {
	for _, ch := range g.startCh {
		close(ch)
	}
	g.startCh = nil
	g.doneCh = nil
	g.panics = nil
}

// Run executes all partitions until no events remain anywhere or the
// horizon is reached, and returns the latest partition clock. Each
// iteration is one epoch: flush send lanes, end the window one lookahead
// past the earliest next-work bound, deliver due cross events, then
// execute all shards — pinned to persistent workers — up to the window end.
func (g *ParallelGroup) Run(horizon Time) Time {
	n := g.n
	for s := 0; s < n; s++ {
		g.cacheNext(s)
	}
	w := g.effectiveWorkers()
	if w > 1 {
		g.startPool(w)
		defer g.stopPool()
	}
	for {
		g.flushLanes()
		minNext := MaxTime
		for s := 0; s < n; s++ {
			minNext = min(minNext, g.locNext[s], g.pendMin[s])
		}
		if minNext == MaxTime || minNext > horizon {
			break
		}

		// Any message a shard can still emit lands at or beyond its
		// next-work bound plus the lookahead, so every shard may execute
		// everything up to the earliest such bound.
		g.winEnd = min(satAdd(minNext, g.lookahead), horizon)
		for d := 0; d < n; d++ {
			if g.pendMin[d] <= g.winEnd {
				g.deliver(d)
			}
		}
		g.windows++

		if w == 1 {
			for s := 0; s < n; s++ {
				g.runShard(s)
			}
		} else {
			g.remaining.Store(int32(w))
			for _, ch := range g.startCh {
				ch <- struct{}{}
			}
			g.runSpan(w-1, w)
			if g.remaining.Add(-1) != 0 {
				<-g.doneCh
			}
			for slot, p := range g.panics {
				if p != nil {
					g.panics[slot] = nil
					panic(p)
				}
			}
		}
	}
	var last Time
	for _, e := range g.engines {
		if e.Now() > last {
			last = e.Now()
		}
	}
	return last
}
