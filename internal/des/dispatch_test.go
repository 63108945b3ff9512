package des

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pioeval/internal/leakcheck"
)

// TestCallbackPanicOnProcGoroutine: a callback that panics while a blocked
// goroutine proc is the one running the event loop must surface from Run on
// the caller's goroutine with its original value, and leave the engine
// usable: a later Run is not re-entrant and resumes the waiting proc.
func TestCallbackPanicOnProcGoroutine(t *testing.T) {
	leakcheck.Check(t)
	e := NewEngine(1)
	resumed := Time(-1)
	e.Spawn("w", func(p *Proc) {
		p.Wait(10)
		resumed = p.Now()
	})
	e.After(5, func() { panic("boom") })
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("Run raised %v, want the callback's panic value boom", r)
			}
		}()
		e.Run(MaxTime)
		t.Fatal("Run returned without raising the callback panic")
	}()
	if e.Now() != 5 {
		t.Fatalf("clock after the panic = %v, want 5", e.Now())
	}
	if end := e.Run(MaxTime); end != 10 || resumed != 10 {
		t.Fatalf("second Run ended at %v with the proc resumed at %v, want 10 and 10", end, resumed)
	}
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after the second Run, want 0", n)
	}
}

// TestWakeAllocs pins the steady-state cost of a goroutine-proc wake at
// zero allocations, both for a self-wake (the blocking proc is the next
// to run) and for a cross-proc wake (every wake changes goroutine).
func TestWakeAllocs(t *testing.T) {
	const runs, batch = 50, 64
	for _, tc := range []struct {
		name  string
		procs int
	}{{"self", 1}, {"cross", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(1)
			for i := 0; i < tc.procs; i++ {
				e.SpawnAt(Time(i), "p", func(p *Proc) {
					for k := 0; k < (runs+1)*batch; k++ {
						p.Wait(Time(tc.procs))
					}
				})
			}
			e.Run(Time(tc.procs)) // start the goroutines outside the measurement
			allocs := testing.AllocsPerRun(runs, func() { e.Run(e.Now() + batch) })
			e.Run(MaxTime)
			if allocs != 0 {
				t.Errorf("%s wake: %v allocs per %d wakes, want 0", tc.name, allocs, batch)
			}
			if n := e.LiveProcs(); n != 0 {
				t.Fatalf("LiveProcs = %d after the run, want 0", n)
			}
		})
	}
}

// The differential tests below run small generated programs through both
// execution forms and through split Run horizons, and require identical
// (time, proc, step) logs. A program is a set of procs, each a sequence of
// ops over shared queues, resources and signals.

type opKind int

const (
	opWait        opKind = iota // Wait(d)
	opWaitUntil                 // WaitUntil(now + d - 5): in the past when d < 5
	opPut                       // Put on queue idx
	opGet                       // Get from queue idx
	opHold                      // Acquire resource idx, run body, Release
	opSigWait                   // Wait on signal idx
	opFire                      // Fire signal idx
	opFork                      // spawn each of kids, join them on a WaitGroup
	opAfter                     // After(d): a callback that spawns body as a proc
	opAfterCancel               // AfterCancel(d) spawning body, canceled by a callback at c
	opSteal                     // a callback at d TryAcquires resource idx and holds a won unit for c
	opForkReAdd                 // opFork whose WaitGroup a callback at c raises again for one more child, body
	numOps
)

type genOp struct {
	kind opKind
	d, c Time
	idx  int
	body []genOp
	kids [][]genOp
}

type genProgram struct {
	queues, resources, signals int
	capacity                   []int
	procs                      [][]genOp
	starts                     []Time
}

// genOps returns n random ops. depth bounds nesting; inHold restricts the
// ops to those that cannot hold a second resource or wait on children, so
// every generated program can be driven to completion by drain.
func genOps(r *rand.Rand, prog *genProgram, n, depth int, inHold bool) []genOp {
	ops := make([]genOp, n)
	for i := range ops {
		o := genOp{kind: opKind(r.Intn(int(numOps))), d: Time(r.Intn(12))}
		if inHold || depth == 0 {
			for o.kind >= opHold && o.kind != opSigWait && o.kind != opFire && o.kind != opSteal {
				o.kind = opKind(r.Intn(int(numOps)))
			}
		}
		switch o.kind {
		case opPut, opGet:
			o.idx = r.Intn(prog.queues)
		case opHold:
			o.idx = r.Intn(prog.resources)
			o.body = genOps(r, prog, r.Intn(4), depth-1, true)
		case opSigWait, opFire:
			o.idx = r.Intn(prog.signals)
		case opFork, opForkReAdd:
			o.kids = make([][]genOp, 1+r.Intn(3))
			for k := range o.kids {
				o.kids[k] = genOps(r, prog, r.Intn(5), depth-1, false)
			}
			if o.kind == opForkReAdd {
				o.c = Time(r.Intn(12))
				o.body = genOps(r, prog, r.Intn(4), depth-1, false)
			}
		case opSteal:
			o.idx = r.Intn(prog.resources)
			o.c = Time(r.Intn(12))
		case opAfter, opAfterCancel:
			o.c = Time(r.Intn(12))
			o.body = genOps(r, prog, r.Intn(5), depth-1, false)
		}
		ops[i] = o
	}
	return ops
}

func genProg(seed int64) genProgram {
	r := rand.New(rand.NewSource(seed))
	prog := genProgram{queues: 1 + r.Intn(2), resources: 1 + r.Intn(2), signals: 1 + r.Intn(2)}
	for i := 0; i < prog.resources; i++ {
		prog.capacity = append(prog.capacity, 1+r.Intn(2))
	}
	n := 2 + r.Intn(5)
	for i := 0; i < n; i++ {
		prog.procs = append(prog.procs, genOps(r, &prog, 3+r.Intn(10), 2, false))
		prog.starts = append(prog.starts, Time(r.Intn(6)))
	}
	return prog
}

// genForm is the execution form a genWorld runs its procs in.
type genForm int

const (
	formGoroutine genForm = iota // goroutine Procs running runG
	formEvent                    // spawned EventProcs running runE
	formHosted                   // goroutine Procs awaiting runE (Proc.Await)
)

// genWorld interprets one program on one engine in one execution form.
type genWorld struct {
	e      *Engine
	form   genForm
	queues []*Queue[int]
	res    []*Resource
	sigs   []*Signal
	log    strings.Builder
}

func newGenWorld(prog genProgram, form genForm) *genWorld {
	w := &genWorld{e: NewEngine(1), form: form}
	for i := 0; i < prog.queues; i++ {
		w.queues = append(w.queues, NewQueue[int](w.e, "q"))
	}
	for i := 0; i < prog.resources; i++ {
		w.res = append(w.res, NewResource(w.e, "r", prog.capacity[i]))
	}
	for i := 0; i < prog.signals; i++ {
		w.sigs = append(w.sigs, NewSignal(w.e))
	}
	for i, ops := range prog.procs {
		w.spawn(prog.starts[i], fmt.Sprintf("p%d", i), ops, nil)
	}
	return w
}

func (w *genWorld) logf(name, step string) {
	fmt.Fprintf(&w.log, "%d %s %s\n", w.e.Now(), name, step)
}

// spawn starts ops as a proc of the world's form after delay d; the proc
// marks wg done when it ends.
func (w *genWorld) spawn(d Time, name string, ops []genOp, wg *WaitGroup) {
	end := func() {
		w.logf(name, "end")
		if wg != nil {
			wg.Done()
		}
	}
	switch w.form {
	case formEvent:
		w.e.SpawnEventAt(d, name, func(ep *EventProc) { w.runE(ep, name, ops, 0, end) })
	case formHosted:
		w.e.SpawnAt(d, name, func(p *Proc) {
			p.Await(func(ep *EventProc) { w.runE(ep, name, ops, 0, end) })
		})
	default:
		w.e.SpawnAt(d, name, func(p *Proc) {
			w.runG(p, name, ops)
			end()
		})
	}
}

// schedule arms an op's callbacks; identical in both forms.
func (w *genWorld) schedule(name string, i int, o genOp) {
	child := fmt.Sprintf("%s.%d", name, i)
	fire := func() {
		w.logf(child, "callback")
		w.spawn(0, child, o.body, nil)
	}
	if o.kind == opAfter {
		w.e.After(o.d, fire)
		return
	}
	cancel := w.e.AfterCancel(o.d, fire)
	w.e.After(o.c, func() {
		w.logf(child, "cancel")
		cancel()
	})
}

// fork spawns an op's children on a fresh WaitGroup. For opForkReAdd a
// callback raises the group again for one more child, which can land
// after the count has reached zero but before the woken waiter runs.
func (w *genWorld) fork(name string, i int, o genOp) *WaitGroup {
	wg := NewWaitGroup(w.e)
	wg.Add(len(o.kids))
	for k, kid := range o.kids {
		w.spawn(0, fmt.Sprintf("%s.%d.%d", name, i, k), kid, wg)
	}
	if o.kind == opForkReAdd {
		child := fmt.Sprintf("%s.%d.%d", name, i, len(o.kids))
		w.e.After(o.c, func() {
			w.logf(child, "readd")
			wg.Add(1)
			w.spawn(0, child, o.body, wg)
		})
	}
	return wg
}

// steal arms a callback that takes a unit of a resource without waiting,
// the way a TryAcquire can slip in between a Release and the woken
// waiter's dispatch, and holds a won unit for o.c.
func (w *genWorld) steal(name string, i int, o genOp) {
	child := fmt.Sprintf("%s.%d", name, i)
	r := w.res[o.idx]
	w.e.After(o.d, func() {
		if !r.TryAcquire() {
			w.logf(child, "miss")
			return
		}
		w.logf(child, "steal")
		w.e.After(o.c, r.Release)
	})
}

// runG interprets ops on a goroutine proc.
func (w *genWorld) runG(p *Proc, name string, ops []genOp) {
	for i, o := range ops {
		switch o.kind {
		case opWait:
			p.Wait(o.d)
		case opWaitUntil:
			p.WaitUntil(p.Now() + o.d - 5)
		case opPut:
			w.queues[o.idx].Put(i)
		case opGet:
			w.queues[o.idx].Get(p)
		case opHold:
			w.res[o.idx].Acquire(p)
			w.runG(p, fmt.Sprintf("%s/%d", name, i), o.body)
			w.res[o.idx].Release()
		case opSigWait:
			w.sigs[o.idx].Wait(p)
		case opFire:
			w.sigs[o.idx].Fire()
		case opFork, opForkReAdd:
			w.fork(name, i, o).Wait(p)
		case opAfter, opAfterCancel:
			w.schedule(name, i, o)
		case opSteal:
			w.steal(name, i, o)
		}
		w.logf(name, fmt.Sprint(i))
	}
}

// runE interprets ops[i:] on a continuation proc, then runs k.
func (w *genWorld) runE(ep *EventProc, name string, ops []genOp, i int, k func()) {
	if i == len(ops) {
		k()
		return
	}
	o := ops[i]
	next := func() {
		w.logf(name, fmt.Sprint(i))
		w.runE(ep, name, ops, i+1, k)
	}
	switch o.kind {
	case opWait:
		ep.Wait(o.d, next)
	case opWaitUntil:
		ep.WaitUntil(ep.Now()+o.d-5, next)
	case opPut:
		w.queues[o.idx].Put(i)
		next()
	case opGet:
		w.queues[o.idx].GetE(ep, func(int) { next() })
	case opHold:
		r := w.res[o.idx]
		r.AcquireE(ep, func() {
			w.runE(ep, fmt.Sprintf("%s/%d", name, i), o.body, 0, func() {
				r.Release()
				next()
			})
		})
	case opSigWait:
		w.sigs[o.idx].WaitE(ep, next)
	case opFire:
		w.sigs[o.idx].Fire()
		next()
	case opFork, opForkReAdd:
		w.fork(name, i, o).WaitE(ep, next)
	case opAfter, opAfterCancel:
		w.schedule(name, i, o)
		next()
	case opSteal:
		w.steal(name, i, o)
		next()
	}
}

// drive runs the world to completion. Each Run advances to the next
// horizon that horizon returns; when the queue is empty but procs are
// still blocked, one drain round puts an item on every queue and fires
// every signal, so every generated program ends with no live proc.
func (w *genWorld) drive(t *testing.T, horizon func() Time) string {
	for round := 0; ; round++ {
		for w.e.Pending() > 0 {
			w.e.Run(horizon())
		}
		if w.e.LiveProcs() == 0 {
			return w.log.String()
		}
		if round == 1000 {
			t.Fatalf("%d procs still blocked after %d drain rounds\n%s", w.e.LiveProcs(), round, w.log.String())
		}
		w.logf("drain", fmt.Sprint(round))
		for _, q := range w.queues {
			q.Put(-1)
		}
		for _, s := range w.sigs {
			s.Fire()
		}
	}
}

// TestGeneratedProgramsFormEquivalence: every generated program yields the
// same log when its procs are goroutine Procs, when they are EventProcs,
// and when they are goroutine Procs that await the continuation form on
// their hosted EventProcs.
func TestGeneratedProgramsFormEquivalence(t *testing.T) {
	leakcheck.Check(t)
	for seed := int64(1); seed <= 300; seed++ {
		prog := genProg(seed)
		forever := func() Time { return MaxTime }
		g := newGenWorld(prog, formGoroutine).drive(t, forever)
		ev := newGenWorld(prog, formEvent).drive(t, forever)
		if g != ev {
			t.Fatalf("seed %d: goroutine and continuation logs differ\n--- goroutine\n%s--- continuation\n%s", seed, g, ev)
		}
		if h := newGenWorld(prog, formHosted).drive(t, forever); g != h {
			t.Fatalf("seed %d: goroutine and hosted logs differ\n--- goroutine\n%s--- hosted\n%s", seed, g, h)
		}
	}
}

// TestGeneratedProgramsHorizonSplit: every generated program yields the
// same log under one Run(MaxTime) and under Runs split at random
// horizons, with the event loop handed back and forth between Run and the
// parked proc goroutines at every split, both for goroutine Procs and for
// goroutine Procs awaiting on their hosted EventProcs.
func TestGeneratedProgramsHorizonSplit(t *testing.T) {
	leakcheck.Check(t)
	for seed := int64(1); seed <= 300; seed++ {
		prog := genProg(seed)
		whole := newGenWorld(prog, formGoroutine).drive(t, func() Time { return MaxTime })
		for _, form := range []genForm{formGoroutine, formHosted} {
			r := rand.New(rand.NewSource(-seed))
			w := newGenWorld(prog, form)
			split := w.drive(t, func() Time { return w.e.Now() + Time(r.Intn(8)) })
			if whole != split {
				t.Fatalf("seed %d, form %d: whole and split-horizon logs differ\n--- whole\n%s--- split\n%s", seed, form, whole, split)
			}
		}
	}
}

// TestAwaitReentryPanics: calling Await from inside an awaited
// operation's step, while the hosted EventProc is blocked, panics.
func TestAwaitReentryPanics(t *testing.T) {
	e := NewEngine(1)
	sig := NewSignal(e)
	var got any
	e.Spawn("p", func(p *Proc) {
		p.Await(func(ep *EventProc) {
			sig.WaitE(ep, func() {})
			defer func() { got = recover() }()
			p.Await(func(*EventProc) {})
		})
	})
	e.After(1, sig.Fire)
	e.Run(MaxTime)
	if s, ok := got.(string); !ok || !strings.Contains(s, "Await re-entered") {
		t.Fatalf("nested Await recovered %v, want the re-entry panic", got)
	}
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after the run, want 0", n)
	}
}

// TestAwaitHostedIdentity: the hosted EventProc has its proc's PID and
// name and is not counted as a live process, and a synchronous operation
// (no blocking point armed) returns without yielding.
func TestAwaitHostedIdentity(t *testing.T) {
	e := NewEngine(1)
	var live []int
	e.Spawn("p", func(p *Proc) {
		p.Await(func(ep *EventProc) {
			if ep.PID() != p.PID() || ep.Name() != "p" {
				t.Errorf("hosted EventProc is %s/%d, want p/%d", ep.Name(), ep.PID(), p.PID())
			}
			live = append(live, e.LiveProcs())
		})
		p.Await(func(ep *EventProc) {
			ep.Wait(5, func() { live = append(live, e.LiveProcs()) })
		})
		if p.Now() != 5 {
			t.Errorf("awaited 5ns wait ended at %v", p.Now())
		}
	})
	e.Run(MaxTime)
	if len(live) != 2 || live[0] != 1 || live[1] != 1 || e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs during the awaits %v, after %d; want [1 1], 0", live, e.LiveProcs())
	}
}
