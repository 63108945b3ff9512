package des

import "fmt"

// Proc is a simulated process: a goroutine that advances only when the
// engine resumes it. All blocking primitives (Wait, Resource.Acquire,
// Queue.Get, Signal.Wait) must be called from the process's own goroutine.
//
// A Proc hosts an EventProc, which carries its engine and name.
// Every blocking primitive awaits its continuation form on it (see Await)
// with a last step that does nothing, and Spawn schedules it with a first
// step that does nothing, so a proc resumes only where a step of its
// EventProc completes an operation.
//
// A blocking proc runs the event loop itself (see Engine.Run). If its own
// wake is the next to resume a goroutine proc it simply returns, with no
// goroutine switch; otherwise it passes the loop on to the proc that
// resumes next, or back to Run when nothing is left before the horizon,
// and suspends (see pass). Exactly one goroutine runs the loop at a time,
// so event order is unchanged.
type Proc struct {
	// ep is the hosted EventProc; its host is the proc itself.
	ep EventProc
	procSwitch
	// fn is the body until the proc's first dispatch starts it.
	fn func(p *Proc)
}

// NoStep is the last step of an operation a goroutine proc awaits, as
// every goroutine-form primitive does: the operation is complete once the
// step that wakes the proc runs, and the proc reads its outcome when it
// resumes.
type NoStep struct{}

func (NoStep) Step() {}

// Spawn starts fn as a new simulated process at the current time.
// The name appears in deadlock diagnostics.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(0, name, fn)
}

// SpawnAt starts fn as a new simulated process after delay d. The proc's
// goroutine starts at the dispatch of its hosted EventProc's first step.
func (e *Engine) SpawnAt(d Time, name string, fn func(p *Proc)) *Proc {
	return e.spawn(d, name, -1, fn)
}

// SpawnIndexed starts fn as a new simulated process at the current time,
// named name followed by index (name "rank", index 3 gives "rank3"); the
// name is formatted only when Name is called, as SpawnEventOn's is.
func (e *Engine) SpawnIndexed(name string, index int, fn func(p *Proc)) *Proc {
	return e.spawn(0, name, index, fn)
}

func (e *Engine) spawn(d Time, name string, index int, fn func(p *Proc)) *Proc {
	p := &Proc{fn: fn}
	e.startEventProc(&p.ep, d, name, index)
	p.ep.k, p.ep.host = NoStep{}, p
	return p
}

// park runs the event loop on this goroutine until the proc is the next to
// resume: a self-wake returns at once, any other next wake gets the loop
// handed to it, and the proc suspends until resumed.
func (p *Proc) park() {
	if next := p.ep.eng.procLoop(); next != p {
		p.pass(next)
	}
}

// Await runs one continuation-form operation on the proc and blocks until
// it completes. start begins the operation on the proc's hosted EventProc,
// passing the continuations the operation needs; the operation has
// completed once a step returns without arming another blocking point, as
// a spawned EventProc ends. Await panics if called from inside an awaited
// operation's step.
//
// The hosted EventProc has the proc's name and is not counted by
// LiveProcs. start runs on the proc's goroutine; every later step is an
// ordinary continuation dispatch, run in place on whichever goroutine holds
// the event loop, and only the step that completes the operation hands the
// loop to the proc. An operation therefore takes the same events in the
// same order whether a goroutine proc awaits it or a spawned EventProc runs
// it, and costs the proc at most one hand-off. A step must never call a
// goroutine-form primitive (Proc.Wait, Signal.Wait, Resource.Acquire and
// the like): that panics while the proc is parked here. Await allocates
// nothing: the hosted EventProc is part of the Proc.
func (p *Proc) Await(start func(ep *EventProc)) {
	if p.ep.armed || p.ep.awaited {
		panic(fmt.Sprintf("des: Await re-entered on proc %s while its operation is blocked", p.Name()))
	}
	p.await(start)
}

// await is Await without the re-entry check, the body of every
// goroutine-form primitive. It panics while the proc is parked in Await:
// the caller is then a step of the awaited operation, running on whichever
// goroutine holds the event loop, and parking that goroutine on this
// proc's wake would corrupt both.
func (p *Proc) await(start func(ep *EventProc)) {
	ep := &p.ep
	if ep.awaited {
		panic(fmt.Sprintf("des: blocking call on proc %s from a step of the operation it awaits; steps must use the continuation forms", p.Name()))
	}
	start(ep)
	if ep.armed {
		ep.awaited = true
		p.park()
		ep.awaited = false
	}
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.ep.eng }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.ep.eng.now }

// Name returns the process name given at Spawn or SpawnIndexed.
func (p *Proc) Name() string { return p.ep.Name() }

// Wait advances simulated time by d for this process.
func (p *Proc) Wait(d Time) { p.await(func(ep *EventProc) { ep.Wait(d, NoStep{}) }) }

// Signal is a broadcast condition: processes wait on it and a later Fire
// releases all current waiters. A Signal can be reused after firing.
// Waiters of both execution forms share one list and are released in
// strict arrival order. The zero value is ready to use.
type Signal struct {
	waiters waiterFIFO
}

// Wait blocks the calling process until the next Fire.
func (s *Signal) Wait(p *Proc) { p.await(func(ep *EventProc) { s.WaitE(ep, NoStep{}) }) }

// WaitE is the continuation form of Wait: k runs when the next Fire
// releases the signal.
func (s *Signal) WaitE(ep *EventProc, k Step) {
	ep.arm(k)
	s.waiters.push(ep)
}

// Fire releases all processes currently waiting on the signal, in
// arrival order. Safe to call from process or event context. The list is
// detached before the wakes, so a process that waits again once woken
// waits for the next Fire.
func (s *Signal) Fire() {
	ws := s.waiters
	s.waiters = waiterFIFO{}
	for ep := ws.pop(); ep != nil; ep = ws.pop() {
		ep.wakeNow()
	}
}

// WaitGroup counts down to zero and then releases waiters, mirroring
// sync.WaitGroup for simulated processes. The zero value is ready to use,
// so a state machine can embed one and reuse it for every fan-out.
type WaitGroup struct {
	n     int
	doneS Signal
}

// Add increments the counter by delta.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("des: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.doneS.Fire()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks the calling process until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) { p.await(func(ep *EventProc) { wg.WaitE(ep, NoStep{}) }) }

// WaitE is the continuation form of Wait: k runs once the counter reaches
// zero, synchronously when it already is, re-checking across Fires.
// The re-check rides the EventProc's retry slot, so waiting allocates
// nothing.
func (wg *WaitGroup) WaitE(ep *EventProc, k Step) {
	if wg.n == 0 {
		k.Step()
		return
	}
	ep.armRetry(wg, k)
	wg.doneS.waiters.push(ep)
}

// retryE re-runs a woken WaitE.
func (wg *WaitGroup) retryE(ep *EventProc, k Step) { wg.WaitE(ep, k) }
