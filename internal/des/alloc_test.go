package des

import (
	"reflect"
	"runtime"
	"runtime/debug"
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
	kick := new(Signal)
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
	kick := new(Signal)
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
		if wg.doneS.waiters.len() == 0 {
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

// TestEventProcSize pins EventProc at 80 bytes: scale runs keep two per
// rank alive. It carries its waiter-FIFO link, so a wait allocates
// nothing, and no process id, which nothing read.
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
	sig := new(Signal)
	q := NewQueue[int](e, "q")
	var wg WaitGroup
	h := &holdOp{r: r, d: 1}
	pre := &holder{r: r}
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
			pre.take()
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

// holder takes a unit of r on a process of its own, restarted in place
// for every take, so a take allocates nothing. The process ends holding
// the unit, which the test releases.
type holder struct {
	ep EventProc
	r  *Resource
}

func (h *holder) Step() { h.r.AcquireE(&h.ep, NoStep{}) }

// take starts the holder's process at the current time, so it acquires
// before any process scheduled after it.
func (h *holder) take() { h.r.eng.SpawnEventOn(&h.ep, "holder", -1, h) }

// TestAwaitAllocs pins a steady-state awaited operation — a contended
// AcquireE, a Wait and a Release on a goroutine proc's hosted EventProc —
// at zero allocations: the method value handed to Await stays on the
// stack and the hosted EventProc is part of the Proc.
func TestAwaitAllocs(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	kick := new(Signal)
	stop := false
	grants := 0
	for i := 0; i < 2; i++ {
		h := &holdOp{r: r, d: Time(i + 1)}
		e.Spawn("p", func(p *Proc) {
			for {
				kick.Wait(p)
				if stop {
					return
				}
				p.Await(h.start)
				grants++
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
	if e.LiveProcs() != 0 || grants != 104 || r.PeakQueueLen() != 1 {
		t.Fatalf("LiveProcs %d, %d acquisitions, peak queue %d; want 0, 104, 1", e.LiveProcs(), grants, r.PeakQueueLen())
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
		m.q.getE(&m.ep, m.k)
	case 5:
		m.q.take()
		m.wg.WaitE(&m.ep, m.k)
	}
	// Phase 6, joined: the step arms nothing and the process ends.
}

// TestStepAllocs pins the continuation primitives at zero allocations for
// both kinds of Step: a pointer to a state machine, and a StepFunc.
// Each round restarts the machine's process with SpawnEventOn and runs it
// through Wait, a contended AcquireE, Signal.WaitE, getE and
// WaitGroup.WaitE; callbacks bound once release each blocking point.
func TestStepAllocs(t *testing.T) {
	for _, kind := range []string{"pointer", "StepFunc"} {
		e := NewEngine(1)
		m := &stepMachine{r: NewResource(e, "r", 1), q: NewQueue[int](e, "q")}
		pre := &holder{r: m.r}
		m.k = m
		if kind == "StepFunc" {
			m.k = StepFunc(func() { m.Step() })
		}
		release, fire, put, done := m.r.Release, m.sig.Fire, func() { m.q.Put(1) }, m.wg.Done
		round := func() {
			m.phase = 0
			pre.take()
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

// burstPrim is one primitive under TestWaitBurstAllocs: block makes the
// next waiters block, release unblocks them all, wait and waitE block a
// process on it in either form, and woken is what a woken waiter does
// next: pass a resource unit on, or take its queue item in continuation
// form.
type burstPrim struct {
	block, release func()
	wait           func(p *Proc)
	waitE          func(ep *EventProc, k Step)
	woken          func()
	list           *waiterFIFO
}

// TestWaitBurstAllocs runs bursts of 10,000 waiters of each form on a
// Resource, a Queue, a Signal and a WaitGroup. The waiters are procs that
// live across bursts: each waits on kick, then on the primitive, logs its
// wake and waits on kick again. A burst allocates nothing beyond the
// procs themselves, that is nothing at all, and the waiters wake in
// arrival order. Once a last kick has ended the procs, neither list nor
// any process links a process.
//
// On toolchains before go1.23 a goroutine proc parks on a channel, and
// the runtime's cache of channel waiters, which a GC empties, would count
// too; so the GC runs between measurements only.
func TestWaitBurstAllocs(t *testing.T) {
	const n = 10_000
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, kind := range []string{"Resource", "Queue", "Signal", "WaitGroup"} {
		for _, form := range []string{"event", "goroutine"} {
			e := NewEngine(1)
			b := &burstPrim{block: func() {}, woken: func() {}}
			switch kind {
			case "Resource":
				r := NewResource(e, "r", 1)
				b.block = (&holder{r: r}).take
				b.release, b.wait, b.waitE, b.woken, b.list = r.Release, r.Acquire, r.AcquireE, r.Release, &r.waiters
			case "Queue":
				q := NewQueue[int](e, "q")
				b.release = func() {
					for i := 0; i < n; i++ {
						q.Put(i)
					}
				}
				b.wait, b.waitE, b.list = func(p *Proc) { q.Get(p) }, q.getE, &q.getters
				if form == "event" {
					b.woken = func() { q.take() }
				}
			case "Signal":
				s := new(Signal)
				b.release, b.wait, b.waitE, b.list = s.Fire, s.Wait, s.WaitE, &s.waiters
			case "WaitGroup":
				var wg WaitGroup
				b.block = func() { wg.Add(1) }
				b.release, b.wait, b.waitE, b.list = wg.Done, wg.Wait, wg.WaitE, &wg.doneS.waiters
			}
			kick := new(Signal)
			log := make([]int, 0, n)
			eps := make([]*EventProc, n)
			stop := false
			for i := 0; i < n; i++ {
				if form == "event" {
					var woke StepFunc
					kp := newKicked(e, kick, func(kp *kicked) {
						if !stop {
							b.waitE(kp.ep, woke)
						}
					})
					woke = func() {
						b.woken()
						log = append(log, i)
						kp.again()
					}
					e.Run(MaxTime)
					eps[i] = kp.ep
					continue
				}
				eps[i] = &e.SpawnIndexed("w", i, func(p *Proc) {
					for {
						kick.Wait(p)
						if stop {
							return
						}
						b.wait(p)
						b.woken()
						log = append(log, int(p.ep.index))
					}
				}).ep
			}
			burst := func() {
				log = log[:0]
				b.block()
				kick.Fire()
				e.After(1, b.release)
				e.Run(MaxTime)
			}
			e.Run(MaxTime)
			burst() // grow the event pool, immediate ring and item ring
			runtime.GC()
			if got := testing.AllocsPerRun(3, burst); got != 0 {
				t.Errorf("%s, %s form: a %d-waiter burst allocates %v, want 0", kind, form, n, got)
			}
			for i, w := range log {
				if w != i {
					t.Fatalf("%s, %s form: wake %d went to waiter %d, want arrival order", kind, form, i, w)
				}
			}
			stop = true
			kick.Fire()
			e.Run(MaxTime)
			if len(log) != n || e.LiveProcs() != 0 || *b.list != (waiterFIFO{}) || kick.waiters != (waiterFIFO{}) {
				t.Fatalf("%s, %s form: %d wakes, %d live procs after the last kick, drained lists %+v, %+v; want %d, 0, empty, empty",
					kind, form, len(log), e.LiveProcs(), *b.list, kick.waiters, n)
			}
			for i, ep := range eps {
				if ep.next != nil {
					t.Fatalf("%s, %s form: ended waiter %d still links another", kind, form, i)
				}
			}
		}
	}
}

// TestSignalRewaitWaitsForNextFire: a waiter that waits on a signal again
// from the step the signal's Fire woke it to is released by the next Fire
// only, in either form.
func TestSignalRewaitWaitsForNextFire(t *testing.T) {
	e := NewEngine(1)
	s := new(Signal)
	var wakes []string
	log := func(who string) { wakes = append(wakes, who+"@"+e.Now().String()) }
	e.SpawnEvent("e", func(ep *EventProc) {
		var again StepFunc
		again = func() {
			log("e")
			if len(wakes) < 3 {
				s.WaitE(ep, again)
			}
		}
		s.WaitE(ep, again)
	})
	e.Spawn("g", func(p *Proc) {
		for i := 0; i < 2; i++ {
			s.Wait(p)
			log("g")
		}
	})
	e.After(1, s.Fire)
	e.After(5, s.Fire)
	e.Run(MaxTime)
	want := []string{"e@1ns", "g@1ns", "e@5ns", "g@5ns"}
	if !reflect.DeepEqual(wakes, want) {
		t.Errorf("wakes = %v, want %v", wakes, want)
	}
	if s.waiters.len() != 0 || e.LiveProcs() != 0 {
		t.Errorf("%d waiters, %d live procs after the second Fire; want 0, 0", s.waiters.len(), e.LiveProcs())
	}
}
