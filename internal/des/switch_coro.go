//go:build go1.23

package des

import "iter"

// With a toolchain that has coroutines (iter.Pull), each goroutine proc
// runs as a coroutine driven from Run's goroutine. Control passes between
// Run and a proc by a direct coroutine switch on the same thread: the Go
// scheduler is not involved, so a switch neither wakes an idle processor
// nor depends on what other threads are doing, and its cost is steady. A
// proc that blocks and is not the next to run passes the loop back to Run
// with the proc that is, and Run resumes that one: two switches per
// change of proc, each cheaper than one channel rendezvous between
// goroutines. switch_chan.go is the form for older toolchains.

// engineSwitch is the Engine's part of proc switching.
type engineSwitch struct {
	// after is the proc a finishing proc passed the event loop to.
	after *Proc
}

// procSwitch is a Proc's coroutine, from its first dispatch until its
// body returns.
type procSwitch struct {
	resume func() (*Proc, bool)
	yield  func(*Proc) bool
}

// runProcs runs goroutine procs, p first, until one finds nothing left
// before the horizon (or a dispatch panics, see procLoop).
func (e *Engine) runProcs(p *Proc) {
	for p != nil {
		p = e.handoff(p)
	}
}

// handoff resumes proc p, starting its coroutine at its first dispatch,
// and returns the proc p passes the event loop to once it blocks or
// finishes. A panic in p's body surfaces here, so from Run; a body that
// calls runtime.Goexit ends the goroutine that called Run.
func (e *Engine) handoff(p *Proc) *Proc {
	e.switches++
	if p.resume == nil {
		p.resume, _ = iter.Pull(p.run)
	}
	next, ok := p.resume()
	if !ok {
		p.resume, p.ep.live = nil, false
		next, e.after = e.after, nil
	}
	return next
}

// run is the proc's coroutine: the body, then retirement and passing the
// loop on.
func (p *Proc) run(yield func(*Proc) bool) {
	p.yield = yield
	fn := p.fn
	p.fn = nil
	fn(p)
	p.yield = nil
	e := p.ep.eng
	e.procs--
	e.after = e.procLoop()
}

// pass hands the event loop to next (nil: back to Run) and suspends the
// proc until it is resumed.
func (p *Proc) pass(next *Proc) { p.yield(next) }
