package des

import "fmt"

// Proc is a simulated process: a goroutine that advances only when the
// engine resumes it. All blocking primitives (Wait, Resource.Acquire,
// Queue.Get, Signal.Wait) must be called from the process's own goroutine.
//
// A blocking proc does not return control to a central engine goroutine:
// it runs the event loop itself (see Engine.Run). If its own wake is the
// next goroutine-proc event it simply returns, with no goroutine switch;
// otherwise it hands the loop directly to the proc that wakes next, or
// back to Run when nothing is left before the horizon, and parks. Exactly
// one goroutine runs the loop at a time, so event order is unchanged.
type Proc struct {
	eng    *Engine
	pid    int
	name   string
	resume chan struct{}
	// fn is the body until the proc's first dispatch starts its goroutine.
	fn func(p *Proc)
	// hosted runs the continuation-form operations the proc awaits; it is
	// allocated by the first Await.
	hosted *EventProc
}

// Spawn starts fn as a new simulated process at the current time.
// The name appears in deadlock diagnostics.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(0, name, fn)
}

// SpawnAt starts fn as a new simulated process after delay d. The spawn is
// a proc-carrying event: the proc's goroutine starts at its first dispatch.
func (e *Engine) SpawnAt(d Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, pid: e.nextPID, name: name, resume: make(chan struct{}), fn: fn}
	e.nextPID++
	e.procs++
	e.schedule(e.now+d, nil, p)
	return p
}

// main is the proc goroutine: run the body, then pass the event loop on
// and exit. The deferred exit also covers a body that leaves through
// runtime.Goexit.
func (p *Proc) main(fn func(p *Proc)) {
	defer p.exit()
	fn(p)
}

// exit retires the finished proc and hands the event loop on.
func (p *Proc) exit() {
	p.eng.procs--
	p.eng.handoff(p.eng.procLoop())
}

// block suspends the process until its scheduled wake. It runs the event
// loop on this goroutine: a self-wake returns at once, any other next
// wake gets the loop handed to it, and the proc parks until resumed.
func (p *Proc) block() {
	next := p.eng.procLoop()
	if next == p {
		return
	}
	p.eng.handoff(next)
	<-p.resume
}

// Await runs one continuation-form operation on the proc and blocks until
// it completes. start begins the operation on the proc's hosted EventProc,
// passing the continuations the operation needs; the operation has
// completed once a step returns without arming another blocking point, as
// a spawned EventProc ends. Await panics if the hosted EventProc is still
// blocked, that is when called from inside an awaited operation's step.
//
// The hosted EventProc has the proc's PID and name and is not counted by
// LiveProcs. Each of its wakes is a proc-carrying event for this proc at
// the slot the EventProc's own wake would take, and the proc runs the
// armed step on its own goroutine, so an operation takes the same events
// in the same order whether a goroutine proc awaits it or a spawned
// EventProc runs it. Await allocates only the hosted EventProc, once per
// proc.
func (p *Proc) Await(start func(ep *EventProc)) {
	ep := p.hosted
	if ep == nil {
		ep = &EventProc{eng: p.eng, pid: p.pid, name: p.name, index: -1, live: true, host: p}
		p.hosted = ep
	} else if ep.armed {
		panic(fmt.Sprintf("des: Await re-entered on proc %s while its operation is blocked", p.name))
	}
	start(ep)
	for ep.armed {
		p.block()
		ep.step()
	}
}

// wakeAt schedules the process to continue at time at. The wake is a
// proc-carrying pooled event — no closure, no allocation — that the event
// loop turns into a direct handoff.
func (p *Proc) wakeAt(at Time) {
	p.eng.schedule(at, nil, p)
}

// wakeNow schedules the process to continue at the current time (after
// currently dispatching event completes).
func (p *Proc) wakeNow() { p.wakeAt(p.eng.now) }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// PID returns the unique process id.
func (p *Proc) PID() int { return p.pid }

// Wait advances simulated time by d for this process.
func (p *Proc) Wait(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("des: negative wait %v in proc %s", d, p.name))
	}
	p.wakeAt(p.eng.now + d)
	p.block()
}

// WaitUntil advances simulated time to absolute time at (no-op if at is in
// the past).
func (p *Proc) WaitUntil(at Time) {
	if at <= p.eng.now {
		return
	}
	p.wakeAt(at)
	p.block()
}

// Signal is a broadcast condition: processes wait on it and a later Fire
// releases all current waiters. A Signal can be reused after firing.
// Waiters of both execution forms share one list and are released in
// strict arrival order.
type Signal struct {
	waiters []waiter
}

// NewSignal creates a Signal for processes on engine e.
func NewSignal(e *Engine) *Signal { return &Signal{} }

// Wait blocks the calling process until the next Fire.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, waiter{p: p})
	p.block()
}

// WaitE is the continuation form of Wait: k runs when the next Fire
// releases the signal.
func (s *Signal) WaitE(ep *EventProc, k func()) {
	ep.arm(k)
	s.waiters = append(s.waiters, waiter{ep: ep})
}

// Fire releases all processes currently waiting on the signal.
// Safe to call from process or event context. The waiter list is cleared
// and kept for reuse, so a signal fired every step stops allocating once
// its list has grown to the largest batch of waiters.
func (s *Signal) Fire() {
	ws := s.waiters
	for i, w := range ws {
		ws[i] = waiter{}
		w.wake()
	}
	s.waiters = ws[:0]
}

// NumWaiters reports how many processes are blocked on the signal.
func (s *Signal) NumWaiters() int { return len(s.waiters) }

// WaitGroup counts down to zero and then releases waiters, mirroring
// sync.WaitGroup for simulated processes. The zero value is ready to use,
// so a state machine can embed one and reuse it for every fan-out.
type WaitGroup struct {
	n     int
	doneS Signal
}

// NewWaitGroup creates a WaitGroup for processes on engine e.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{} }

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
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.n > 0 {
		wg.doneS.Wait(p)
	}
}

// WaitE is the continuation form of Wait: k runs once the counter reaches
// zero, synchronously when it already is (matching Wait's no-yield fast
// path), re-checking across Fires exactly like the goroutine form's loop.
// The re-check rides the EventProc's retry slot, so waiting allocates
// nothing.
func (wg *WaitGroup) WaitE(ep *EventProc, k func()) {
	if wg.n == 0 {
		k()
		return
	}
	ep.armRetry(wg, k)
	wg.doneS.waiters = append(wg.doneS.waiters, waiter{ep: ep})
}

// retryE re-runs a woken WaitE.
func (wg *WaitGroup) retryE(ep *EventProc, k func()) { wg.WaitE(ep, k) }
