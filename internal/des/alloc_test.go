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
	stepF StepFunc
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
		var releaseF, heldF StepFunc
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
	var joinedF StepFunc
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
	var firstF, secondF StepFunc
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

// TestEventSize pins the pooled event slot at 32 bytes: a slot carries a
// callback or an EventProc, since a goroutine proc's wakes are those of the
// EventProc it hosts.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 32 {
		t.Errorf("event is %d bytes, want 32", n)
	}
}

// TestSpawnBlockAllocs pins a goroutine proc at one allocation in total:
// Spawn allocates the Proc, with its hosted EventProc inside, and nothing
// else; and a proc that waits, waits on a signal, takes from an empty
// queue, acquires a held resource, joins a WaitGroup and awaits an
// operation allocates exactly what a proc that returns at once does.
// Starting the proc's coroutine or goroutine costs both the same.
func TestSpawnBlockAllocs(t *testing.T) {
	e := NewEngine(1)
	noop := func() {}
	for i := 0; i < 200; i++ {
		e.After(1, noop) // grow the event slab, heap and free list
	}
	e.Run(MaxTime)
	idle := func(*Proc) {}
	if n := testing.AllocsPerRun(100, func() { e.Spawn("p", idle) }); n != 1 {
		t.Errorf("Spawn: %v allocs, want 1", n)
	}
	e.Run(MaxTime)

	r := NewResource(e, "r", 1)
	sig := NewSignal(e)
	q := NewQueue[int](e, "q")
	var wg WaitGroup
	h := &holdOp{r: r, d: 1}
	ends := 0
	blocking := func(p *Proc) {
		p.Wait(1)
		sig.Wait(p)
		q.Get(p)
		r.Acquire(p)
		r.Release()
		wg.Wait(p)
		p.Await(h.start)
		ends++
	}
	fire, put, release, done := sig.Fire, func() { q.Put(1) }, r.Release, wg.Done
	round := func(body func(*Proc)) func() {
		return func() {
			r.TryAcquire()
			wg.Add(1)
			e.After(2, fire)
			e.After(3, put)
			e.After(4, release)
			e.After(5, done)
			e.Spawn("p", body)
			e.Run(MaxTime)
		}
	}
	base := testing.AllocsPerRun(50, round(idle))
	n := testing.AllocsPerRun(50, round(blocking))
	if n != base {
		t.Errorf("a proc through every blocking call: %v allocs per round, want %v as for a proc that returns at once", n, base)
	}
	if ends != 51 || e.LiveProcs() != 0 || r.PeakQueueLen() != 1 {
		t.Fatalf("%d bodies ended, %d live procs, peak queue %d; want 51, 0, 1", ends, e.LiveProcs(), r.PeakQueueLen())
	}
}

// holdOp is an acquire-wait-release operation that is its own
// continuation, the way the I/O-path state machines are theirs.
type holdOp struct {
	r    *Resource
	ep   *EventProc
	d    Time
	held bool
}

func (h *holdOp) start(ep *EventProc) {
	h.ep, h.held = ep, false
	h.r.AcquireE(ep, h)
}

func (h *holdOp) Step() {
	if !h.held {
		h.held = true
		h.ep.Wait(h.d, h)
		return
	}
	h.r.Release()
}

// TestAwaitAllocs pins a steady-state awaited operation — a contended
// AcquireE, a Wait and a Release on a goroutine proc's hosted EventProc —
// at zero allocations: the method value handed to Await stays on the
// stack and the hosted EventProc is part of the Proc.
func TestAwaitAllocs(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	kick := NewSignal(e)
	stop := false
	for i := 0; i < 2; i++ {
		h := &holdOp{r: r, d: Time(i + 1)}
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

// stepMachine is a process that is its own continuation, or continues
// through k when k is set. One run waits, acquires a held resource, waits
// on a signal, takes an item from an empty queue and joins a WaitGroup, so
// every blocking point but the first queues the process as a waiter.
type stepMachine struct {
	ep    EventProc
	r     *Resource
	sig   Signal
	q     *Queue[int]
	wg    WaitGroup
	k     Step
	phase int
}

func (m *stepMachine) Step() {
	m.phase++
	switch m.phase {
	case 1:
		m.ep.Wait(1, m.k)
	case 2:
		m.r.AcquireE(&m.ep, m.k)
	case 3:
		m.r.Release()
		m.sig.WaitE(&m.ep, m.k)
	case 4:
		m.q.GetE(&m.ep, m.k)
	case 5:
		m.q.TryGet()
		m.wg.WaitE(&m.ep, m.k)
	}
	// Phase 6, joined: the step arms nothing and the process ends.
}

// TestStepAllocs pins the continuation primitives at zero allocations for
// both kinds of Step: a pointer to a state machine, and a StepFunc.
// Each round restarts the machine's process with SpawnEventOn and runs it
// through Wait, a contended AcquireE, Signal.WaitE, GetE and
// WaitGroup.WaitE; callbacks bound once release each blocking point.
func TestStepAllocs(t *testing.T) {
	for _, kind := range []string{"pointer", "StepFunc"} {
		e := NewEngine(1)
		m := &stepMachine{r: NewResource(e, "r", 1), q: NewQueue[int](e, "q")}
		m.k = m
		if kind == "StepFunc" {
			m.k = StepFunc(func() { m.Step() })
		}
		release, fire, put, done := m.r.Release, m.sig.Fire, func() { m.q.Put(1) }, m.wg.Done
		round := func() {
			m.phase = 0
			m.r.TryAcquire()
			m.wg.Add(1)
			e.After(2, release)
			e.After(3, fire)
			e.After(4, put)
			e.After(5, done)
			e.SpawnEventOn(&m.ep, "m", -1, m.k)
			e.Run(MaxTime)
		}
		round()
		n := testing.AllocsPerRun(50, round)
		if n != 0 {
			t.Errorf("%s Step: %v allocs per round, want 0", kind, n)
		}
		if m.phase != 6 || e.LiveProcs() != 0 || m.r.PeakQueueLen() != 1 || m.q.Len() != 0 || e.Now() != 52*5 {
			t.Fatalf("%s Step: phase %d, %d live procs, peak queue %d, %d queued items, clock %v; want 6, 0, 1, 0, 260", kind, m.phase, e.LiveProcs(), m.r.PeakQueueLen(), m.q.Len(), e.Now())
		}
	}
}
