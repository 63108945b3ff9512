package des

import (
	"testing"
	"unsafe"
)

// kicked runs step on a continuation proc every time kick fires. step
// must end by calling again once its work is done, which parks the proc
// on kick until the next round.
type kicked struct {
	ep    *EventProc
	kick  *Signal
	stepF func()
}

func newKicked(e *Engine, kick *Signal, step func(k *kicked)) *kicked {
	kp := &kicked{kick: kick}
	kp.stepF = func() { step(kp) }
	e.SpawnEvent("kicked", func(ep *EventProc) {
		kp.ep = ep
		kp.again()
	})
	return kp
}

// again parks the proc until the next kick.
func (kp *kicked) again() { kp.kick.WaitE(kp.ep, kp.stepF) }

// roundAllocs runs rounds of e, each started by firing kick and run until
// the queue drains, and reports the allocations per round after a
// warm-up round.
func roundAllocs(e *Engine, kick *Signal) float64 {
	round := func() {
		kick.Fire()
		e.Run(MaxTime)
	}
	e.Run(MaxTime)
	round()
	return testing.AllocsPerRun(50, round)
}

// TestAcquireEContendedAllocs pins a contended AcquireE at zero
// allocations: the waiter parks with the resource in its retry slot, not
// in a closure.
func TestAcquireEContendedAllocs(t *testing.T) {
	e := NewEngine(1)
	kick := NewSignal(e)
	r := NewResource(e, "r", 1)
	var grants int
	for i := 0; i < 2; i++ {
		var kp *kicked
		var releaseF, heldF func()
		releaseF = func() {
			r.Release()
			kp.again()
		}
		heldF = func() {
			grants++
			kp.ep.Wait(2, releaseF)
		}
		kp = newKicked(e, kick, func(kp *kicked) { r.AcquireE(kp.ep, heldF) })
	}
	allocs := roundAllocs(e, kick)
	if allocs != 0 {
		t.Errorf("contended AcquireE: %v allocs per round, want 0", allocs)
	}
	if r.PeakQueueLen() != 1 || grants < 4 {
		t.Fatalf("peak queue %d after %d grants: the second proc never waited", r.PeakQueueLen(), grants)
	}
}

// TestWaitGroupWaitERecheckAllocs pins WaitE at zero allocations through
// its re-check: the counter reaches zero, is raised again before the
// woken waiter runs, and the waiter parks a second time.
func TestWaitGroupWaitERecheckAllocs(t *testing.T) {
	e := NewEngine(1)
	kick := NewSignal(e)
	var wg WaitGroup
	var rechecks, joins int
	var joinedF func()
	waiter := newKicked(e, kick, func(kp *kicked) {
		wg.Add(1)
		wg.WaitE(kp.ep, joinedF)
	})
	joinedF = func() {
		if wg.n != 0 {
			t.Fatalf("waiter joined with the counter at %d", wg.n)
		}
		joins++
		waiter.again()
	}
	var worker *kicked
	var firstF, secondF func()
	firstF = func() {
		wg.Done() // reaches zero: the waiter's wake is queued...
		wg.Add(1) // ...and the counter rises again before it runs
		if len(wg.doneS.waiters) == 0 {
			rechecks++
		}
		worker.ep.Wait(1, secondF)
	}
	secondF = func() {
		wg.Done()
		worker.again()
	}
	worker = newKicked(e, kick, func(kp *kicked) { kp.ep.Wait(1, firstF) })
	allocs := roundAllocs(e, kick)
	if allocs != 0 {
		t.Errorf("WaitE re-check: %v allocs per round, want 0", allocs)
	}
	if joins < 2 || rechecks != joins {
		t.Fatalf("%d joins, %d zero-then-raised counters: the re-check path did not run", joins, rechecks)
	}
}

// TestEventProcSize pins EventProc at 80 bytes, the size class it had
// before it gained its host field: scale runs keep two per rank alive.
func TestEventProcSize(t *testing.T) {
	if n := unsafe.Sizeof(EventProc{}); n != 80 {
		t.Errorf("EventProc is %d bytes, want 80", n)
	}
}

// holdOp is an acquire-wait-release operation whose continuations are
// bound once, the way the I/O-path state machines bind theirs.
type holdOp struct {
	r           *Resource
	ep          *EventProc
	d           Time
	heldF, relF func()
}

func (h *holdOp) start(ep *EventProc) {
	h.ep = ep
	h.r.AcquireE(ep, h.heldF)
}

// TestAwaitAllocs pins a steady-state awaited operation — a contended
// AcquireE, a Wait and a Release on a goroutine proc's hosted EventProc —
// at zero allocations: the method value handed to Await stays on the
// stack and the hosted EventProc is allocated by the first Await only.
func TestAwaitAllocs(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	kick := NewSignal(e)
	stop := false
	for i := 0; i < 2; i++ {
		h := &holdOp{r: r, d: Time(i + 1), relF: r.Release}
		h.heldF = func() { h.ep.Wait(h.d, h.relF) }
		e.Spawn("p", func(p *Proc) {
			for {
				kick.Wait(p)
				if stop {
					return
				}
				p.Await(h.start)
			}
		})
	}
	round := func() {
		kick.Fire()
		e.Run(MaxTime)
	}
	e.Run(MaxTime)
	round()
	n := testing.AllocsPerRun(50, round)
	stop = true
	round()
	if n != 0 {
		t.Errorf("awaited acquire-wait-release: %v allocs per round, want 0", n)
	}
	if e.LiveProcs() != 0 || r.Acquisitions() != 104 || r.PeakQueueLen() != 1 {
		t.Fatalf("LiveProcs %d, %d acquisitions, peak queue %d; want 0, 104, 1", e.LiveProcs(), r.Acquisitions(), r.PeakQueueLen())
	}
}
