package des

import (
	"errors"
	"fmt"
	"strconv"
)

// Step is a continuation: what a continuation-form process does when a
// blocking point it armed fires. The continuation primitives take a Step
// in the way net/http takes a Handler. A state machine is its own
// continuation, a pointer whose Step method switches on its phase: a
// pointer stored in an interface allocates nothing, where a method value
// bound to the same pointer allocates a closure. StepFunc adapts a plain
// function, which an interface holds without allocating either.
type Step interface{ Step() }

// StepFunc adapts an ordinary function to a Step.
type StepFunc func()

// Step calls f.
func (f StepFunc) Step() { f() }

// EventProc is the continuation (goroutine-free) execution form of a
// simulated process. Where a Proc is a goroutine that blocks on simulation
// primitives, an EventProc is a handle whose blocking points are
// continuation callbacks dispatched directly from the event loop: no
// goroutine, no stack, no channel rendezvous. A blocked EventProc costs
// one pooled event, or nothing beyond itself on a waiter FIFO, plus the
// continuation it carries, so simulations with hundreds of thousands to
// millions of mostly-blocked entities stay cheap where one goroutine per
// entity would not.
//
// The two forms interoperate on the same Engine and the same primitives:
// every goroutine Proc hosts an EventProc, and each blocking method for
// Procs (Proc.Wait, Queue.Get, Resource.Acquire, Signal.Wait,
// WaitGroup.Wait) awaits its continuation method (Wait, getE, AcquireE,
// WaitE) on it. An EventProc is the only thing that blocks, so wake order
// is strict arrival order regardless of form.
//
// Determinism rules (see DESIGN.md "Execution forms"):
//
//   - One thread of control: an EventProc may have at most one pending
//     blocking point. Registering a second before the first fires panics.
//     Fork by spawning more EventProcs and joining on a WaitGroup.
//   - Ready paths run synchronously: a continuation primitive whose
//     condition already holds (queue non-empty, resource free, WaitGroup
//     at zero) invokes the continuation inline without yielding, so the
//     goroutine form, which awaits it, returns without parking.
//   - An EventProc ends when a continuation step returns without
//     registering a new blocking point. It counts toward
//     Engine.LiveProcs until then, so deadlock detection covers both
//     forms.
type EventProc struct {
	eng *Engine
	// name, followed by index when index >= 0, is the process name; it is
	// formatted only when Name is called.
	name  string
	index int32
	armed bool
	live  bool
	// awaited is set on a hosted EventProc while its host is parked in
	// Await, when the host's blocking calls are misuse (see Proc.await).
	awaited bool

	// The pending step is k, unless retry is set: retry is then either a
	// primitive whose wait condition is re-checked on wake before k runs,
	// or the body of a SpawnEvent process that has not started (see
	// retrier). A dispatch is an ep-carrying pooled event, scheduled by
	// Wait or by a waiter-FIFO wake (Queue/Resource/Signal), whichever
	// blocking point armed it.
	k     Step
	retry retrier

	// host is the goroutine proc this EventProc is part of (see
	// Proc.Await), or nil for a spawned one.
	host *Proc
	// next links the process into the one waiter FIFO it is blocked on,
	// if any (see waiterFIFO).
	next *EventProc
}

// retrier is a primitive whose continuation-form wait re-checks its
// condition on wake: Queue and Resource (a same-time getE or AcquireE of
// another process may have taken the item or unit first) and WaitGroup
// (an Add may have raised the counter again). Keeping the primitive in a
// slot on the EventProc, in place of a closure that calls back into it,
// makes a contended wait allocation-free. The slot also holds the body of a
// process SpawnEvent started (spawnBody), which saves EventProc a field.
type retrier interface {
	retryE(ep *EventProc, k Step)
}

// spawnBody is the body of a SpawnEvent process, run as its first step.
type spawnBody func(ep *EventProc)

func (fn spawnBody) retryE(ep *EventProc, _ Step) { fn(ep) }

// SpawnEvent starts fn as a new continuation-form process at the current
// time. fn runs as the first continuation step; the process lives until a
// step returns without blocking.
func (e *Engine) SpawnEvent(name string, fn func(ep *EventProc)) *EventProc {
	return e.SpawnEventAt(0, name, fn)
}

// SpawnEventAt starts fn as a new continuation-form process after delay d.
func (e *Engine) SpawnEventAt(d Time, name string, fn func(ep *EventProc)) *EventProc {
	if d < 0 {
		panic(fmt.Sprintf("des: negative spawn delay %v for event proc %s", d, name))
	}
	ep := new(EventProc)
	e.startEventProc(ep, d, name, -1)
	ep.retry = spawnBody(fn)
	return ep
}

// ErrLiveRestart is the value SpawnEventOn panics with (wrapped, with the
// process name) when the storage it is handed still holds a live process.
var ErrLiveRestart = errors.New("des: SpawnEventOn on a live event proc")

// SpawnEventOn starts a continuation-form process at the current time in
// storage the caller owns, *ep, which it overwrites; the process's first
// step is k. It suits state machines that embed an EventProc by value and
// are their own continuation: a recycled machine restarts its process for
// every use instead of allocating one each time. The process gets the
// next event slot, exactly as a spawn that allocates does. It is named
// name, followed by index when index >= 0 (name "rank", index 3 gives
// "rank3"); the name is formatted only when Name is called.
//
// *ep may be restarted only once its previous process has ended, that is
// after the step that ended it has returned: restarting a live process
// panics with ErrLiveRestart. For the same reason a step must never reset
// or copy over its own EventProc, since the engine reads it after the
// step returns.
func (e *Engine) SpawnEventOn(ep *EventProc, name string, index int, k Step) {
	if ep.live {
		panic(fmt.Errorf("%w: %s", ErrLiveRestart, ep.Name()))
	}
	e.startEventProc(ep, 0, name, index)
	ep.k = k
}

// startEventProc makes *ep a new live process, due to take its first step
// after delay d.
func (e *Engine) startEventProc(ep *EventProc, d Time, name string, index int) {
	*ep = EventProc{eng: e, name: name, index: int32(index), live: true}
	e.procs++
	e.scheduleEP(e.now+d, ep)
}

// enter runs the pending step. If the step returns without arming a new
// blocking point, a spawned EventProc has finished, and a hosted one has
// completed the operation its host awaits: enter then returns the host,
// for the loop to resume.
func (ep *EventProc) enter() *Proc {
	k, rt := ep.k, ep.retry
	ep.k, ep.retry = nil, nil
	ep.armed = false
	if rt != nil {
		rt.retryE(ep, k)
	} else {
		k.Step()
	}
	if !ep.armed {
		if ep.host != nil {
			return ep.host
		}
		if ep.live {
			ep.live = false
			ep.eng.procs--
		}
	}
	return nil
}

// arm registers k as the continuation for the blocking point being
// installed. Exactly one blocking point may be pending per step.
func (ep *EventProc) arm(k Step) {
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
func (ep *EventProc) armRetry(rt retrier, k Step) {
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
func (ep *EventProc) Wait(d Time, k Step) {
	if d < 0 {
		panic(fmt.Sprintf("des: negative wait %v in proc %s", d, ep.Name()))
	}
	ep.arm(k)
	ep.eng.scheduleEP(ep.eng.now+d, ep)
}

// Engine returns the engine this process runs on.
func (ep *EventProc) Engine() *Engine { return ep.eng }

// Now returns the current simulated time.
func (ep *EventProc) Now() Time { return ep.eng.now }

// Name returns the process name given at spawn.
func (ep *EventProc) Name() string {
	if ep.index < 0 {
		return ep.name
	}
	return ep.name + strconv.Itoa(int(ep.index))
}
