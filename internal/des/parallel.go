package des

import (
	"fmt"
	"slices"
)

// ParallelGroup couples several independent engines (logical partitions,
// "shards") under conservative synchronization — the classic CMB-style
// parallel-discrete-event contract: cross-partition interactions must
// carry at least one lookahead of latency, so no cross event can land
// inside the window that emits it. Every window runs the shards in index
// order on the caller's goroutine.
//
//   - One uniform window. Every epoch ends at the earliest next-work bound
//     over all shards plus the group lookahead (capped at the horizon);
//     every shard executes up to that one time.
//   - Deterministic delivery. Send appends to the destination's pending
//     list; due events are merged in (at, from, seq) order on a reusable
//     scratch buffer, so cross-shard order never depends on which shard
//     ran first, and steady state allocates nothing.
//   - Cached next-event times. The per-epoch scan reads cached bounds
//     refreshed only for shards that executed or received messages; idle
//     engines are not re-queried every window.
type ParallelGroup struct {
	engines   []*Engine
	n         int
	lookahead Time

	// sendSeq[from] orders a sender's messages, making the (at, from, seq)
	// merge key total.
	sendSeq []uint64

	// pend[to] holds undelivered cross events per destination; pendMin[to]
	// caches the earliest pending timestamp. scratch is the reusable
	// per-delivery merge buffer.
	pend    [][]crossEvent
	pendMin []Time
	scratch []crossEvent

	// locNext caches each engine's next-event time (MaxTime when idle);
	// winEnd is the current epoch's window end, shared by every shard.
	locNext []Time
	winEnd  Time

	windows uint64
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
		sendSeq:   make([]uint64, n),
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

// Send schedules fn to run on partition `to` after delay `delay` measured
// from partition `from`'s current time. The delay must be at least the
// group lookahead — that is what makes conservative windowed execution
// correct. Call it from code executing on partition `from` (event handlers
// and processes of that engine, or any code while the group is not
// running).
func (g *ParallelGroup) Send(from, to int, delay Time, fn func()) {
	if to < 0 || to >= g.n || from < 0 || from >= g.n {
		panic("des: cross-partition index out of range")
	}
	if delay < g.lookahead {
		panic(fmt.Sprintf("des: cross-partition delay %v below lookahead %v", delay, g.lookahead))
	}
	at := g.engines[from].Now() + delay
	g.pend[to] = append(g.pend[to], crossEvent{
		at:   at,
		from: int32(from),
		seq:  g.sendSeq[from],
		fn:   fn,
	})
	g.sendSeq[from]++
	if at < g.pendMin[to] {
		g.pendMin[to] = at
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

// Run executes all partitions until no events remain anywhere or the
// horizon is reached, and returns the latest partition clock. Each
// iteration is one epoch: end the window one lookahead past the earliest
// next-work bound, deliver due cross events, then execute every shard in
// index order up to the window end.
func (g *ParallelGroup) Run(horizon Time) Time {
	n := g.n
	for s := 0; s < n; s++ {
		g.cacheNext(s)
	}
	for {
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

		for s := 0; s < n; s++ {
			g.runShard(s)
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
