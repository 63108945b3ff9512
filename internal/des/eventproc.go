package des

import (
	"fmt"
	"strconv"
)

// EventProc is the continuation (goroutine-free) execution form of a
// simulated process. Where a Proc is a goroutine that blocks on simulation
// primitives, an EventProc is a handle whose blocking points are
// continuation callbacks dispatched directly from the event loop: no
// goroutine, no stack, no channel rendezvous. A blocked EventProc costs
// one pooled event (or one waiter-FIFO slot) plus the continuation it
// carries, so simulations with hundreds of thousands to millions of
// mostly-blocked entities stay cheap where one goroutine per entity would
// not.
//
// The two forms interoperate on the same Engine and the same primitives:
// Queue, Resource, Signal, and WaitGroup each have a blocking method for
// Procs (Get, Acquire, Wait) and a continuation method for EventProcs
// (GetE, AcquireE, WaitE), and waiters of both forms share one FIFO, so
// wake order is strict arrival order regardless of form.
//
// Determinism rules (see DESIGN.md "Execution forms"):
//
//   - One thread of control: an EventProc may have at most one pending
//     blocking point. Registering a second before the first fires panics.
//     Fork by spawning more EventProcs and joining on a WaitGroup.
//   - Ready paths run synchronously: a continuation primitive whose
//     condition already holds (queue non-empty, resource free, WaitGroup
//     at zero) invokes the continuation inline without yielding — exactly
//     as the goroutine form returns without blocking — so both forms
//     observe the same event interleavings.
//   - An EventProc ends when a continuation step returns without
//     registering a new blocking point. It counts toward
//     Engine.LiveProcs until then, so deadlock detection covers both
//     forms.
type EventProc struct {
	eng *Engine
	pid int
	// name, followed by index when index >= 0, is the process name; it is
	// formatted only when Name is called.
	name  string
	index int32
	armed bool
	live  bool

	// The pending step is exactly one of: fn, the body of a process that
	// has not started; retry, a primitive whose wait condition is
	// re-checked on wake before k runs (see retrier); or k alone. A
	// dispatch is an ep-carrying pooled event (Wait) or a waiter-FIFO wake
	// (Queue/Resource/Signal), whichever blocking point armed it.
	fn    func(ep *EventProc)
	k     func()
	retry retrier

	// host is the goroutine proc this EventProc is hosted by (see
	// Proc.Await), or nil for a spawned one.
	host *Proc
}

// retrier is a primitive whose continuation-form wait re-checks its
// condition on wake: Resource (a TryAcquire may have taken the unit) and
// WaitGroup (an Add may have raised the counter again). Keeping the
// primitive in a slot on the EventProc, in place of a closure that calls
// back into it, makes a contended wait allocation-free.
type retrier interface {
	retryE(ep *EventProc, k func())
}

// SpawnEvent starts fn as a new continuation-form process at the current
// time. fn runs as the first continuation step; the process lives until a
// step returns without blocking.
func (e *Engine) SpawnEvent(name string, fn func(ep *EventProc)) *EventProc {
	return e.SpawnEventAt(0, name, fn)
}

// SpawnEventAt starts fn as a new continuation-form process after delay d.
func (e *Engine) SpawnEventAt(d Time, name string, fn func(ep *EventProc)) *EventProc {
	ep := e.newEventProc(d, name, -1)
	ep.fn = fn
	return ep
}

// SpawnEventK starts a continuation-form process at the current time whose
// first step is k; the caller keeps the returned handle for k to use. It
// suits state machines that bind one continuation when they are allocated
// and reuse it for every step. The process is named name, followed by
// index when index >= 0 (name "rank", index 3 gives "rank3"); the name is
// formatted only when Name is called.
func (e *Engine) SpawnEventK(name string, index int, k func()) *EventProc {
	ep := e.newEventProc(0, name, index)
	ep.k = k
	return ep
}

func (e *Engine) newEventProc(d Time, name string, index int) *EventProc {
	if d < 0 {
		panic(fmt.Sprintf("des: negative spawn delay %v for event proc %s", d, name))
	}
	ep := &EventProc{eng: e, pid: e.nextPID, name: name, index: int32(index), live: true}
	e.nextPID++
	e.procs++
	e.scheduleEP(e.now+d, ep)
	return ep
}

// enter runs the pending step of a spawned EventProc. If the step returns
// without arming a new blocking point, the process has finished.
func (ep *EventProc) enter() {
	ep.step()
	if !ep.armed && ep.live {
		ep.live = false
		ep.eng.procs--
	}
}

// step runs the pending step.
func (ep *EventProc) step() {
	fn, k, rt := ep.fn, ep.k, ep.retry
	ep.fn, ep.k, ep.retry = nil, nil, nil
	ep.armed = false
	switch {
	case fn != nil:
		fn(ep)
	case rt != nil:
		rt.retryE(ep, k)
	default:
		k()
	}
}

// arm registers k as the continuation for the blocking point being
// installed. Exactly one blocking point may be pending per step.
func (ep *EventProc) arm(k func()) {
	if ep.armed {
		panic(fmt.Sprintf("des: event proc %s blocked twice in one step", ep.Name()))
	}
	if !ep.live {
		panic(fmt.Sprintf("des: blocking call on finished event proc %s", ep.Name()))
	}
	ep.armed = true
	ep.k = k
}

// armRetry is arm for a wait whose condition rt re-checks on wake before
// k runs.
func (ep *EventProc) armRetry(rt retrier, k func()) {
	ep.arm(k)
	ep.retry = rt
}

// wakeNow schedules the armed continuation to run at the current time,
// after the currently dispatching event completes. Used by the waiter
// FIFOs; the continuation was stored by arm.
func (ep *EventProc) wakeNow() { ep.eng.scheduleEP(ep.eng.now, ep) }

// Wait schedules k to run after simulated delay d — the continuation
// analogue of Proc.Wait. The wake is an ep-carrying pooled event: no
// closure is scheduled and steady-state waits allocate nothing.
func (ep *EventProc) Wait(d Time, k func()) {
	if d < 0 {
		panic(fmt.Sprintf("des: negative wait %v in event proc %s", d, ep.Name()))
	}
	ep.arm(k)
	ep.eng.scheduleEP(ep.eng.now+d, ep)
}

// WaitUntil schedules k at absolute time at, running it synchronously if
// at is not in the future (matching Proc.WaitUntil's no-yield fast path).
func (ep *EventProc) WaitUntil(at Time, k func()) {
	if at <= ep.eng.now {
		k()
		return
	}
	ep.arm(k)
	ep.eng.scheduleEP(at, ep)
}

// Engine returns the engine this process runs on.
func (ep *EventProc) Engine() *Engine { return ep.eng }

// Now returns the current simulated time.
func (ep *EventProc) Now() Time { return ep.eng.now }

// Name returns the process name given at SpawnEvent or SpawnEventK.
func (ep *EventProc) Name() string {
	if ep.index < 0 {
		return ep.name
	}
	return ep.name + strconv.Itoa(int(ep.index))
}

// PID returns the unique process id (shared sequence with goroutine Procs).
func (ep *EventProc) PID() int { return ep.pid }
