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
//
// A kept proc (see Engine.SpawnOn) keeps its coroutine from run to run:
// when its body returns, the coroutine passes the loop on and parks, and
// the next SpawnOn on its storage resumes it with the new body, where a
// new coroutine would cost its iter.Pull state again. Close ends the
// parked coroutines, and Abandon also unwinds the bodies of live ones.

// engineSwitch is the Engine's part of proc switching.
type engineSwitch struct {
	// after is the proc a finishing proc passed the event loop to.
	after *Proc
	// ownedProcs lists the procs SpawnOn started on this engine that
	// have run, whose coroutines Close and Abandon end. Reset keeps it.
	ownedProcs []*Proc
	// ending is set while Close or Abandon resumes a coroutine to end
	// it.
	ending bool
}

// procSwitch is a Proc's coroutine, from its first dispatch until its
// body returns, or until Close or Abandon ends it if the proc is kept.
type procSwitch struct {
	resume func() (*Proc, bool)
	yield  func(*Proc) bool
}

// parked is what a kept proc's coroutine yields once its body has
// returned: handoff takes it for a finished proc, and the coroutine waits
// for the next body.
var parked Proc

// unwound is the panic that unwinds the body of a proc Abandon ends.
type unwound struct{}

// runProcs runs goroutine procs, p first, until one finds nothing left
// before the horizon (or a dispatch panics, see procLoop).
func (e *Engine) runProcs(p *Proc) {
	for p != nil {
		p = e.handoff(p)
	}
}

// handoff resumes proc p, starting its coroutine at its first dispatch
// unless it has one parked, and returns the proc p passes the event loop
// to once it blocks or finishes. A panic in p's body surfaces here, so
// from Run; a body that calls runtime.Goexit ends the goroutine that
// called Run.
func (e *Engine) handoff(p *Proc) *Proc {
	e.switches++
	if p.resume == nil {
		p.resume, _ = iter.Pull(p.run)
		if p.ep.own == owned {
			e.own(p)
		}
	}
	next, ok := p.resume()
	if !ok || next == &parked {
		if !ok {
			p.resume = nil
		}
		p.ep.live = false
		next, e.after = e.after, nil
	}
	return next
}

// run is the proc's coroutine: the body, then retirement and passing the
// loop on. A kept proc's coroutine then parks and, once resumed, runs the
// body SpawnOn left in the proc, or returns if Close or Abandon resumed
// it.
func (p *Proc) run(yield func(*Proc) bool) {
	defer func() {
		if r := recover(); r != nil && r != (unwound{}) {
			panic(r)
		}
	}()
	p.yield = yield
	for {
		fn := p.fn
		p.fn = nil
		fn(p)
		e := p.ep.eng
		e.procs--
		e.after = e.procLoop()
		if p.ep.own != kept {
			p.yield = nil
			return
		}
		yield(&parked)
		if p.ep.eng.ending {
			return
		}
	}
}

// pass hands the event loop to next (nil: back to Run) and suspends the
// proc until it is resumed. A proc Abandon resumes unwinds its body from
// here.
func (p *Proc) pass(next *Proc) {
	p.yield(next)
	if p.ep.eng.ending {
		panic(unwound{})
	}
}

// own lists p. The list starts with room for a few procs, since an
// engine that owns any usually owns several: an MPI world's ranks.
func (e *Engine) own(p *Proc) {
	if e.ownedProcs == nil {
		e.ownedProcs = make([]*Proc, 0, 8)
	}
	e.ownedProcs = append(e.ownedProcs, p)
}

// carried is the part of the switch state Reset keeps: the owned procs.
func (s *engineSwitch) carried() engineSwitch { return engineSwitch{ownedProcs: s.ownedProcs} }

// end ends the coroutine of every proc SpawnOn started on e that has
// one, except live ones unless live is set: a parked coroutine returns,
// and a live proc's body unwinds from the blocking call it is suspended
// in.
func (e *Engine) end(live bool) {
	e.ending = true
	defer func() { e.ending = false }()
	for _, p := range e.ownedProcs {
		if p.resume == nil || p.ep.eng != e || p.ep.live && !live {
			continue
		}
		p.resume()
		p.resume, p.yield = nil, nil
	}
}
