//go:build !go1.23

package des

// Without coroutines (toolchains before go1.23), each goroutine proc is a
// goroutine, and the proc that blocks hands the event loop directly to
// the proc that wakes next, one channel rendezvous per change of proc.
// switch_coro.go is the form for newer toolchains. A proc ends its
// goroutine whenever its body returns, kept or not (see Engine.SpawnOn),
// so Close and Abandon have nothing to end.

// engineSwitch is the Engine's part of proc switching.
type engineSwitch struct {
	// yield carries the loop back to Run from the proc that finds nothing
	// left before the horizon.
	yield chan struct{}
}

// procSwitch is a Proc's wake channel, made at its first dispatch.
type procSwitch struct {
	resume chan struct{}
}

// runProcs runs goroutine procs, p first, until one finds nothing left
// before the horizon (or a dispatch panics, see procLoop).
func (e *Engine) runProcs(p *Proc) {
	if e.yield == nil {
		e.yield = make(chan struct{})
	}
	e.handoff(p)
	<-e.yield
}

// handoff passes the event loop to proc next, starting its goroutine at
// its first dispatch, or back to Run when next is nil.
func (e *Engine) handoff(next *Proc) {
	switch {
	case next == nil:
		e.yield <- struct{}{}
	case next.fn != nil:
		e.switches++
		fn := next.fn
		next.fn = nil
		next.resume = make(chan struct{})
		go next.main(fn)
	default:
		e.switches++
		next.resume <- struct{}{}
	}
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
	e := p.ep.eng
	e.procs--
	p.ep.live = false
	e.handoff(e.procLoop())
}

// pass hands the event loop to next (nil: back to Run) and parks the proc
// until it is resumed.
func (p *Proc) pass(next *Proc) {
	p.ep.eng.handoff(next)
	<-p.resume
}

// carried is the part of the switch state Reset keeps: none.
func (s *engineSwitch) carried() engineSwitch { return engineSwitch{} }

// end does nothing: no goroutine outlives its body, and a live proc's is
// left suspended.
func (e *Engine) end(bool) {}
