package des

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestMixedFormQueueFIFO checks that queue getters of both execution
// forms are served in strict arrival order: goroutine and continuation
// waiters share one FIFO, and each Put wakes exactly the longest-waiting
// getter regardless of its form.
func TestMixedFormQueueFIFO(t *testing.T) {
	run := func() []string {
		var log []string
		e := NewEngine(1)
		q := NewQueue[int](e, "q")
		// Getters arrive at 1ms, 2ms, 3ms, 4ms, alternating forms.
		e.Spawn("g0", func(p *Proc) {
			p.Wait(1 * Millisecond)
			v := q.Get(p)
			log = append(log, fmt.Sprintf("g0:%d", v))
		})
		e.SpawnEvent("e1", func(ep *EventProc) {
			ep.Wait(2*Millisecond, StepFunc(func() {
				q.getE(ep, StepFunc(func() {
					log = append(log, fmt.Sprintf("e1:%d", q.take()))
				}))
			}))
		})
		e.Spawn("g2", func(p *Proc) {
			p.Wait(3 * Millisecond)
			v := q.Get(p)
			log = append(log, fmt.Sprintf("g2:%d", v))
		})
		e.SpawnEvent("e3", func(ep *EventProc) {
			ep.Wait(4*Millisecond, StepFunc(func() {
				q.getE(ep, StepFunc(func() {
					log = append(log, fmt.Sprintf("e3:%d", q.take()))
				}))
			}))
		})
		e.After(10*Millisecond, func() {
			for i := 0; i < 4; i++ {
				q.Put(i)
			}
		})
		e.Run(MaxTime)
		if n := e.LiveProcs(); n != 0 {
			t.Fatalf("LiveProcs = %d after run, want 0", n)
		}
		return log
	}
	got := run()
	want := []string{"g0:0", "e1:1", "g2:2", "e3:3"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wake order = %v, want %v", got, want)
	}
	if again := run(); !reflect.DeepEqual(again, got) {
		t.Errorf("mixed-form run not deterministic: %v vs %v", again, got)
	}
}

// TestMixedFormResourceFIFO checks that a contended resource grants units
// in strict arrival order across execution forms.
func TestMixedFormResourceFIFO(t *testing.T) {
	var order []string
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Wait(10 * Millisecond)
		r.Release()
	})
	hold := func(name string) {
		e.Spawn(name, func(p *Proc) {
			r.Acquire(p)
			order = append(order, name)
			p.Wait(1 * Millisecond)
			r.Release()
		})
	}
	holdE := func(name string) {
		e.SpawnEvent(name, func(ep *EventProc) {
			r.AcquireE(ep, StepFunc(func() {
				order = append(order, name)
				ep.Wait(1*Millisecond, StepFunc(func() {
					r.Release()
				}))
			}))
		})
	}
	// Arrival order interleaves forms; spawn order is arrival order since
	// all contenders hit Acquire at time zero in spawn sequence.
	hold("g1")
	holdE("e2")
	hold("g3")
	holdE("e4")
	e.Run(MaxTime)
	want := []string{"g1", "e2", "g3", "e4"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("grant order = %v, want %v", order, want)
	}
}

// TestMixedFormSignalOrder checks that Fire wakes signal waiters of both
// forms in arrival order.
func TestMixedFormSignalOrder(t *testing.T) {
	var order []string
	e := NewEngine(1)
	s := new(Signal)
	e.Spawn("g0", func(p *Proc) {
		s.Wait(p)
		order = append(order, "g0")
	})
	e.SpawnEvent("e1", func(ep *EventProc) {
		s.WaitE(ep, StepFunc(func() {
			order = append(order, "e1")
		}))
	})
	e.Spawn("g2", func(p *Proc) {
		s.Wait(p)
		order = append(order, "g2")
	})
	e.After(1*Millisecond, s.Fire)
	e.Run(MaxTime)
	want := []string{"g0", "e1", "g2"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("wake order = %v, want %v", order, want)
	}
}

// TestEventProcWaitGroup checks WaitE across both spawn forms: an event
// proc joins on work done by goroutine and event children.
func TestEventProcWaitGroup(t *testing.T) {
	e := NewEngine(1)
	wg := new(WaitGroup)
	var done Time
	e.SpawnEvent("parent", func(ep *EventProc) {
		for i := 1; i <= 3; i++ {
			i := i
			wg.Add(1)
			if i%2 == 0 {
				e.Spawn("gchild", func(p *Proc) {
					p.Wait(Time(i) * Millisecond)
					wg.Done()
				})
			} else {
				e.SpawnEvent("echild", func(c *EventProc) {
					c.Wait(Time(i)*Millisecond, StepFunc(wg.Done))
				})
			}
		}
		wg.WaitE(ep, StepFunc(func() {
			done = ep.Now()
		}))
	})
	e.Run(MaxTime)
	if done != 3*Millisecond {
		t.Errorf("join completed at %v, want 3ms", done)
	}
	if n := e.LiveProcs(); n != 0 {
		t.Errorf("LiveProcs = %d, want 0", n)
	}
}

// TestEventProcAutoTerminate checks the lifecycle rule: a step that
// returns without arming a blocking point finishes the process, and
// LiveProcs tracks event procs exactly like goroutine procs.
func TestEventProcAutoTerminate(t *testing.T) {
	e := NewEngine(1)
	steps := 0
	e.SpawnEvent("p", func(ep *EventProc) {
		steps++
		ep.Wait(1*Millisecond, StepFunc(func() {
			steps++
			// No blocking call: the proc terminates here.
		}))
	})
	if n := e.LiveProcs(); n != 1 {
		t.Fatalf("LiveProcs before run = %d, want 1", n)
	}
	e.Run(MaxTime)
	if steps != 2 {
		t.Errorf("steps = %d, want 2", steps)
	}
	if n := e.LiveProcs(); n != 0 {
		t.Errorf("LiveProcs after run = %d, want 0", n)
	}
}

// TestEventProcDoubleArmPanics checks that arming two blocking points in
// one step — which would corrupt the single-continuation invariant — is
// rejected loudly.
func TestEventProcDoubleArmPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic from double arm")
		}
		if !strings.Contains(fmt.Sprint(r), "blocked twice") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	e := NewEngine(1)
	e.SpawnEvent("p", func(ep *EventProc) {
		ep.Wait(1*Millisecond, StepFunc(func() {}))
		ep.Wait(2*Millisecond, StepFunc(func() {}))
	})
	e.Run(MaxTime)
}

// TestResourceRetryAfterSteal covers the AcquireE retry path: a
// capacity-1 resource has one waiting EventProc and one waiting goroutine
// Proc. A stealer EventProc that starts at the time of the Release, and
// after it, takes the unit with AcquireE before the woken waiter's
// dispatch, so the woken proc finds the resource busy again and must
// re-queue at the back. Either form may be the one woken; both must
// behave the same way.
func TestResourceRetryAfterSteal(t *testing.T) {
	for _, tc := range []struct {
		first string
		want  []string
	}{
		{"event", []string{"stealer@10ms", "goroutine@15ms", "event@16ms"}},
		{"goroutine", []string{"stealer@10ms", "event@15ms", "goroutine@16ms"}},
	} {
		t.Run(tc.first+"-first", func(t *testing.T) {
			var log []string
			grant := func(name string, at Time) { log = append(log, fmt.Sprintf("%s@%v", name, at)) }
			e := NewEngine(1)
			r := NewResource(e, "r", 1)
			// A holder takes the unit at 0 and schedules its release at
			// 10ms, then spawns the stealer at 10ms: the stealer's first
			// step is ordered after the release but before the wake the
			// release issues.
			e.SpawnEvent("holder", func(ep *EventProc) {
				r.AcquireE(ep, StepFunc(func() {
					e.After(10*Millisecond, r.Release)
					e.SpawnEventAt(10*Millisecond, "stealer", func(sp *EventProc) {
						r.AcquireE(sp, StepFunc(func() {
							grant("stealer", sp.Now())
							sp.Wait(5*Millisecond, StepFunc(r.Release))
						}))
					})
				}))
			})
			eventAt, goroutineAt := 1*Millisecond, 2*Millisecond
			if tc.first == "goroutine" {
				eventAt, goroutineAt = goroutineAt, eventAt
			}
			e.SpawnEventAt(eventAt, "event", func(ep *EventProc) {
				r.AcquireE(ep, StepFunc(func() {
					grant("event", ep.Now())
					ep.Wait(1*Millisecond, StepFunc(r.Release))
				}))
			})
			e.SpawnAt(goroutineAt, "goroutine", func(p *Proc) {
				r.Acquire(p)
				grant("goroutine", p.Now())
				p.Wait(1 * Millisecond)
				r.Release()
			})
			e.Run(MaxTime)
			if !reflect.DeepEqual(log, tc.want) {
				t.Errorf("grants = %v, want %v", log, tc.want)
			}
			if n := e.LiveProcs(); n != 0 {
				t.Errorf("LiveProcs = %d, want 0", n)
			}
		})
	}
}

// TestSpawnEventOnLiveProcPanics: restarting storage whose process is
// still live panics with ErrLiveRestart, whether the process has not yet
// taken its first step or is running the step that restarts it; the
// process itself is unharmed.
func TestSpawnEventOnLiveProcPanics(t *testing.T) {
	restart := func(e *Engine, ep *EventProc) (err error) {
		defer func() { err, _ = recover().(error) }()
		e.SpawnEventOn(ep, "again", -1, StepFunc(func() {}))
		return nil
	}
	e := NewEngine(1)
	var ep EventProc
	var inStep error
	e.SpawnEventOn(&ep, "w", 7, StepFunc(func() {
		ep.Wait(3, StepFunc(func() { inStep = restart(e, &ep) }))
	}))
	if err := restart(e, &ep); !errors.Is(err, ErrLiveRestart) || !strings.Contains(err.Error(), "w7") {
		t.Errorf("restart before the first step: %v, want ErrLiveRestart naming w7", err)
	}
	if end := e.Run(MaxTime); end != 3 {
		t.Fatalf("run ended at %v, want 3", end)
	}
	if !errors.Is(inStep, ErrLiveRestart) {
		t.Errorf("restart from the proc's own step: %v, want ErrLiveRestart", inStep)
	}
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after the run, want 0", n)
	}
}

// TestSpawnEventOnRestartsInPlace: storage whose process has ended starts
// the next one with its own lazily formatted name and a fresh one-step
// budget, and LiveProcs returns to 0 after each, also with a SpawnEvent
// between restarts.
func TestSpawnEventOnRestartsInPlace(t *testing.T) {
	e := NewEngine(1)
	var ep EventProc
	var names []string
	for i := 0; i < 3; i++ {
		e.SpawnEventOn(&ep, "rpc", i, StepFunc(func() {
			names = append(names, ep.Name())
			ep.Wait(Time(i+1), StepFunc(func() {}))
		}))
		if n := e.LiveProcs(); n != 1 {
			t.Fatalf("restart %d: LiveProcs = %d, want 1", i, n)
		}
		if i == 1 {
			e.SpawnEvent("k", func(*EventProc) {})
		}
		e.Run(MaxTime)
		if n := e.LiveProcs(); n != 0 {
			t.Fatalf("restart %d: LiveProcs = %d after the run, want 0", i, n)
		}
	}
	if want := []string{"rpc0", "rpc1", "rpc2"}; !reflect.DeepEqual(names, want) {
		t.Errorf("names %v, want %v", names, want)
	}
	if e.Now() != 6 {
		t.Errorf("clock %v after the three procs, want 6", e.Now())
	}
}

// TestSpawnEventOnMatchesSpawnEvent: generated programs whose EventProcs
// are restarted in recycled storage dispatch the same events in the same
// order as ones whose EventProcs are each allocated by SpawnEvent: the
// logs and the dispatch counts agree, every process ends, and storage is
// reused.
func TestSpawnEventOnMatchesSpawnEvent(t *testing.T) {
	forever := func() Time { return MaxTime }
	reused := 0
	for seed := int64(1); seed <= 300; seed++ {
		prog := genProg(seed)
		ev, on := newGenWorld(prog, formEvent), newGenWorld(prog, formEventOn)
		evl, onl := ev.drive(t, forever), on.drive(t, forever)
		if evl != onl {
			t.Fatalf("seed %d: SpawnEvent and SpawnEventOn logs differ\n--- SpawnEvent\n%s--- SpawnEventOn\n%s", seed, evl, onl)
		}
		if a, b := ev.e.Dispatches(), on.e.Dispatches(); a != b {
			t.Fatalf("seed %d: %d dispatches with SpawnEvent, %d with SpawnEventOn", seed, a, b)
		}
		if n := on.e.LiveProcs(); n != 0 {
			t.Fatalf("seed %d: LiveProcs = %d after the run, want 0", seed, n)
		}
		reused += on.reused
	}
	if reused < 100 {
		t.Fatalf("only %d spawns restarted recycled storage", reused)
	}
	t.Logf("%d spawns restarted recycled storage", reused)
}
