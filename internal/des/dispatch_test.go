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

// TestAwaitStepPanicSurfacesFromRun: a panic in a step of an awaited
// operation after its first wake surfaces from Run with its original value
// and the clock at the panic, whether the awaiting proc itself or another
// proc holds the event loop when the step runs.
func TestAwaitStepPanicSurfacesFromRun(t *testing.T) {
	for _, other := range []bool{false, true} {
		e := NewEngine(1)
		e.Spawn("a", func(p *Proc) {
			p.Await(func(ep *EventProc) {
				ep.Wait(10, StepFunc(func() {
					ep.Wait(10, StepFunc(func() { panic("boom") }))
				}))
			})
		})
		if other {
			e.Spawn("b", func(p *Proc) {
				for p.Now() < 30 {
					p.Wait(1)
				}
			})
		}
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("other proc %v: Run raised %v, want the step's panic value boom", other, r)
				}
			}()
			e.Run(MaxTime)
			t.Fatalf("other proc %v: Run returned without raising the step panic", other)
		}()
		if e.Now() != 20 {
			t.Fatalf("other proc %v: clock after the panic = %v, want 20", other, e.Now())
		}
	}
}

// TestAwaitStepBlockingCallPanics: a step of an awaited operation that
// calls a goroutine-form blocking primitive of the awaiting proc, or
// Await again, panics with a message naming the misuse, and the panic
// surfaces from Run. Every primitive awaits its continuation form, so all
// of them share one guard.
func TestAwaitStepBlockingCallPanics(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		call       func(p *Proc)
	}{
		{"Wait", "from a step of the operation it awaits", func(p *Proc) { p.Wait(1) }},
		{"Signal.Wait", "from a step of the operation it awaits", func(p *Proc) { new(Signal).Wait(p) }},
		{"Queue.Get", "from a step of the operation it awaits", func(p *Proc) { NewQueue[int](p.Engine(), "q").Get(p) }},
		{"Resource.Acquire", "from a step of the operation it awaits", func(p *Proc) { NewResource(p.Engine(), "r", 1).Acquire(p) }},
		{"WaitGroup.Wait", "from a step of the operation it awaits", func(p *Proc) {
			wg := new(WaitGroup)
			wg.Add(1)
			wg.Wait(p)
		}},
		{"Await", "Await re-entered", func(p *Proc) { p.Await(func(*EventProc) {}) }},
	} {
		e := NewEngine(1)
		e.Spawn("p", func(p *Proc) {
			p.Await(func(ep *EventProc) {
				ep.Wait(5, StepFunc(func() { tc.call(p) }))
			})
		})
		func() {
			defer func() {
				r := recover()
				if s, ok := r.(string); !ok || !strings.Contains(s, tc.want) {
					t.Fatalf("%s in a step: Run raised %v, want a panic containing %q", tc.name, r, tc.want)
				}
			}()
			e.Run(MaxTime)
			t.Fatalf("%s in a step: Run returned without panicking", tc.name)
		}()
		if e.Now() != 5 {
			t.Fatalf("%s in a step: clock after the panic = %v, want 5", tc.name, e.Now())
		}
	}
}

// TestAwaitSwitchesOncePerOp: two procs interleave awaited operations of k
// Wait steps each, offset so that every step alternates between them. Only
// the step that completes an operation hands the event loop to its proc,
// and every completion lands while the other proc holds the loop, so a run
// resumes a proc once per completion, plus once per proc start, instead of
// once per step.
func TestAwaitSwitchesOncePerOp(t *testing.T) {
	const k, ops = 4, 6
	e := NewEngine(1)
	var done [2][]Time
	for i := 0; i < 2; i++ {
		e.SpawnAt(Time(i), "p", func(p *Proc) {
			for j := 0; j < ops; j++ {
				p.Await(func(ep *EventProc) {
					left := k
					var step StepFunc
					step = func() {
						if left--; left > 0 {
							ep.Wait(2, step)
						}
					}
					ep.Wait(2, step)
				})
				done[i] = append(done[i], p.Now())
			}
		})
	}
	e.Run(MaxTime)
	for i := range done {
		for j, at := range done[i] {
			if want := Time(i + 2*k*(j+1)); at != want {
				t.Fatalf("proc %d op %d completed at %v, want %v", i, j, at, want)
			}
		}
	}
	if want := uint32(2 + 2*ops); e.switches != want {
		t.Fatalf("%d proc resumes for %d awaited ops of %d steps, want %d (one per completion)", e.switches, 2*ops, k, want)
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
	opWait      opKind = iota // Wait(d)
	opPut                     // Put on queue idx
	opGet                     // Get from queue idx
	opHold                    // Acquire resource idx, run body, Release
	opSigWait                 // Wait on signal idx
	opFire                    // Fire signal idx
	opFork                    // spawn each of kids, join them on a WaitGroup
	opAfter                   // After(d): a callback that spawns body as a proc
	opSteal                   // an EventProc spawned at d acquires resource idx and holds the unit for c
	opForkReAdd               // opFork whose WaitGroup a callback at c raises again for one more child, body
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
		case opAfter:
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
	formGoroutine  genForm = iota // goroutine Procs running runG
	formEvent                     // spawned EventProcs running runE
	formHosted                    // goroutine Procs awaiting runE (Proc.Await)
	formPerOpAwait                // goroutine Procs awaiting each op on its own (opE)
	formEventOn                   // EventProcs restarted in recycled storage (SpawnEventOn)
)

// genForms are the execution forms every generated program runs in.
var genForms = []genForm{formGoroutine, formEvent, formHosted, formPerOpAwait, formEventOn}

// genWorld interprets one program on one engine in one execution form.
type genWorld struct {
	e      *Engine
	form   genForm
	queues []*Queue[int]
	res    []*Resource
	sigs   []*Signal
	log    strings.Builder
	// eps is formEventOn's EventProc storage, and reused counts the
	// spawns that restarted a process in storage another had ended in.
	eps    []*EventProc
	reused int
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
		w.sigs = append(w.sigs, new(Signal))
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
	case formEventOn:
		if d == 0 {
			ep := w.storage()
			w.e.SpawnEventOn(ep, name, -1, StepFunc(func() { w.runE(ep, name, ops, 0, end) }))
			return
		}
		fallthrough
	case formEvent:
		w.e.SpawnEventAt(d, name, func(ep *EventProc) { w.runE(ep, name, ops, 0, end) })
	case formHosted:
		w.e.SpawnAt(d, name, func(p *Proc) {
			p.Await(func(ep *EventProc) { w.runE(ep, name, ops, 0, end) })
		})
	case formPerOpAwait:
		w.e.SpawnAt(d, name, func(p *Proc) {
			for i := range ops {
				p.Await(func(ep *EventProc) { w.opE(ep, name, ops, i, func() {}) })
			}
			end()
		})
	default:
		w.e.SpawnAt(d, name, func(p *Proc) {
			w.runG(p, name, ops)
			end()
		})
	}
}

// storage returns EventProc storage whose process has ended, or new
// storage when every process started so far is live.
func (w *genWorld) storage() *EventProc {
	for _, ep := range w.eps {
		if !ep.live {
			w.reused++
			return ep
		}
	}
	ep := new(EventProc)
	w.eps = append(w.eps, ep)
	return ep
}

// schedule arms an op's callback; identical in both forms.
func (w *genWorld) schedule(name string, i int, o genOp) {
	child := fmt.Sprintf("%s.%d", name, i)
	w.e.After(o.d, func() {
		w.logf(child, "callback")
		w.spawn(0, child, o.body, nil)
	})
}

// fork spawns an op's children on a fresh WaitGroup. For opForkReAdd a
// callback raises the group again for one more child, which can land
// after the count has reached zero but before the woken waiter runs.
func (w *genWorld) fork(name string, i int, o genOp) *WaitGroup {
	wg := new(WaitGroup)
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

// steal spawns, after o.d, an EventProc in every form that acquires a
// unit of a resource and holds it for o.c. Its same-time AcquireE can
// take a unit between a Release and the woken waiter's dispatch, which
// makes the waiter re-check and queue again.
func (w *genWorld) steal(name string, i int, o genOp) {
	child := fmt.Sprintf("%s.%d", name, i)
	r := w.res[o.idx]
	w.e.SpawnEventAt(o.d, child, func(ep *EventProc) {
		r.AcquireE(ep, StepFunc(func() {
			w.logf(child, "steal")
			ep.Wait(o.c, StepFunc(r.Release))
		}))
	})
}

// runG interprets ops on a goroutine proc.
func (w *genWorld) runG(p *Proc, name string, ops []genOp) {
	for i, o := range ops {
		switch o.kind {
		case opWait:
			p.Wait(o.d)
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
		case opAfter:
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
	w.opE(ep, name, ops, i, func() { w.runE(ep, name, ops, i+1, k) })
}

// opE interprets ops[i] on a continuation proc, logs it, then runs k.
func (w *genWorld) opE(ep *EventProc, name string, ops []genOp, i int, k func()) {
	o := ops[i]
	next := StepFunc(func() {
		w.logf(name, fmt.Sprint(i))
		k()
	})
	switch o.kind {
	case opWait:
		ep.Wait(o.d, next)
	case opPut:
		w.queues[o.idx].Put(i)
		next()
	case opGet:
		q := w.queues[o.idx]
		q.getE(ep, StepFunc(func() {
			q.take()
			next()
		}))
	case opHold:
		r := w.res[o.idx]
		r.AcquireE(ep, StepFunc(func() {
			w.runE(ep, fmt.Sprintf("%s/%d", name, i), o.body, 0, func() {
				r.Release()
				next()
			})
		}))
	case opSigWait:
		w.sigs[o.idx].WaitE(ep, next)
	case opFire:
		w.sigs[o.idx].Fire()
		next()
	case opFork, opForkReAdd:
		w.fork(name, i, o).WaitE(ep, next)
	case opAfter:
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
// when they are goroutine Procs that await the continuation form on their
// hosted EventProcs, and when they await it one op at a time, so that
// every op's completion hands the event loop back to its proc.
func TestGeneratedProgramsFormEquivalence(t *testing.T) {
	leakcheck.Check(t)
	for seed := int64(1); seed <= 300; seed++ {
		prog := genProg(seed)
		forever := func() Time { return MaxTime }
		g := newGenWorld(prog, formGoroutine).drive(t, forever)
		for _, form := range genForms[1:] {
			if l := newGenWorld(prog, form).drive(t, forever); g != l {
				t.Fatalf("seed %d: goroutine and form %d logs differ\n--- goroutine\n%s--- form %d\n%s", seed, form, g, form, l)
			}
		}
	}
}

// TestGeneratedProgramsHorizonSplit: every generated program yields the
// same log under one Run(MaxTime) and under Runs split at random
// horizons, in every form. At every split the event loop is handed back
// and forth between Run and the parked proc goroutines, and awaited
// operations complete from Run's goroutine as well as from procs'.
func TestGeneratedProgramsHorizonSplit(t *testing.T) {
	leakcheck.Check(t)
	for seed := int64(1); seed <= 300; seed++ {
		prog := genProg(seed)
		whole := newGenWorld(prog, formGoroutine).drive(t, func() Time { return MaxTime })
		for _, form := range genForms {
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
	sig := new(Signal)
	var got any
	e.Spawn("p", func(p *Proc) {
		p.Await(func(ep *EventProc) {
			sig.WaitE(ep, StepFunc(func() {}))
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

// TestAwaitHostedIdentity: the hosted EventProc is the one the proc
// embeds, has its name and is not counted as a live process, and a synchronous operation
// (no blocking point armed) returns without yielding.
func TestAwaitHostedIdentity(t *testing.T) {
	e := NewEngine(1)
	var live []int
	e.Spawn("p", func(p *Proc) {
		p.Await(func(ep *EventProc) {
			if ep != &p.ep || ep.Name() != "p" {
				t.Errorf("hosted EventProc is %s at %p, want p at %p", ep.Name(), ep, &p.ep)
			}
			live = append(live, e.LiveProcs())
		})
		p.Await(func(ep *EventProc) {
			ep.Wait(5, StepFunc(func() { live = append(live, e.LiveProcs()) }))
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
