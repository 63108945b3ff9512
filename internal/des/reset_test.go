package des

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// dirtyRun exercises every part of an engine a run changes: both process
// forms, contended resources and signals, callbacks, named streams (one
// drawn past its lazy bound), a trace hook, and an event left queued,
// unfired, past the horizon. It returns the engine's trace.
func dirtyRun(e *Engine, r *Resource, horizon Time) string {
	var b strings.Builder
	e.SetTraceHook(func(at Time, what string) { fmt.Fprintf(&b, "%d ", at) })
	sig := new(Signal)
	for i := 0; i < 3; i++ {
		e.SpawnOn(new(Proc), "g", i, func(p *Proc) {
			hold(p, r, Time(10+e.RNG().Stream("short").Int63n(5)))
			fmt.Fprintf(&b, "%s@%d ", p.Name(), p.Now())
			sig.Wait(p)
		})
		e.SpawnEvent("ev", func(ep *EventProc) {
			holdE(ep, r, 7, StepFunc(func() { fmt.Fprintf(&b, "e%d@%d ", i, ep.Now()) }))
		})
	}
	for i := 0; i < 300; i++ {
		e.RNG().Stream("long").Int63()
	}
	e.After(500, sig.Fire)
	e.After(2*horizon, func() { b.WriteString("late ") })
	e.Run(horizon)
	fmt.Fprintf(&b, "| now=%d dispatched=%d live=%d pending=%d", e.Now(), e.Dispatches(), e.LiveProcs(), e.Pending())
	return b.String()
}

// engineView is what a caller can observe of an engine and a resource on
// it without running anything, with the units the resource holds, plus
// draws from a stream the dirty run used and one it never named.
func engineView(e *Engine, r *Resource) string {
	return fmt.Sprintf("now=%d dispatched=%d live=%d pending=%d seed=%d short=%d long=%d fresh=%d | %s inUse=%d queue=%d peak=%d util=%g",
		e.Now(), e.Dispatches(), e.LiveProcs(), e.Pending(), e.RNG().Seed(),
		e.RNG().Stream("short").Int63(), e.RNG().Stream("long").Int63(), e.RNG().Stream("fresh").Int63(),
		r.Name(), r.inUse, r.QueueLen(), r.PeakQueueLen(), r.Utilization())
}

// TestEngineResetMatchesFresh: an engine and resource that ran a dirty
// workload, then were reset, look and behave exactly like fresh ones:
// every accessor agrees, streams old and new draw the fresh sequences,
// and the same workload gives the same trace.
func TestEngineResetMatchesFresh(t *testing.T) {
	used := NewEngine(1)
	ur := NewResource(used, "disk", 2)
	if got := dirtyRun(used, ur, 1000); !strings.Contains(got, "pending=1") {
		t.Fatalf("dirty run left no event pending past its horizon: %s", got)
	}
	used.Reset(9)
	ur.Reset()

	fresh := NewEngine(9)
	fr := NewResource(fresh, "disk", 2)
	if got, want := engineView(used, ur), engineView(fresh, fr); got != want {
		t.Fatalf("reset engine differs from a fresh one:\n got %s\nwant %s", got, want)
	}
	used.Reset(9)
	fresh.Reset(9)
	if got, want := dirtyRun(used, ur, 1000), dirtyRun(fresh, fr, 1000); got != want {
		t.Fatalf("reset engine runs differently:\n got %s\nwant %s", got, want)
	}
}

// wantLiveReset asserts that fn panics with ErrLiveReset.
func wantLiveReset(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		err, _ := recover().(error)
		if !errors.Is(err, ErrLiveReset) {
			t.Errorf("%s: panic %v, want ErrLiveReset", what, err)
		}
	}()
	fn()
}

// TestResetInUsePanics: resetting an engine inside Run or with a live
// process, or a resource that is held or has waiters, panics with
// ErrLiveReset.
func TestResetInUsePanics(t *testing.T) {
	e := NewEngine(1)
	e.After(1, func() { wantLiveReset(t, "running engine", func() { e.Reset(2) }) })
	e.Run(MaxTime)

	sig := new(Signal)
	e.Spawn("stuck", func(p *Proc) { sig.Wait(p) })
	e.SpawnEvent("stuck", func(ep *EventProc) { sig.WaitE(ep, StepFunc(func() {})) })
	e.Run(MaxTime)
	wantLiveReset(t, "engine with live procs", func() { e.Reset(2) })
	sig.Fire()
	e.Run(MaxTime)
	e.Reset(2) // every process has ended

	r := NewResource(e, "r", 1)
	(&holder{r: r}).take()
	e.Run(MaxTime)
	wantLiveReset(t, "held resource", r.Reset)
	e.SpawnEvent("waiter", func(ep *EventProc) { r.AcquireE(ep, StepFunc(r.Release)) })
	e.Run(MaxTime)
	wantLiveReset(t, "held resource with a waiter", r.Reset)
	r.Release() // the waiter takes the unit and releases it
	e.Run(MaxTime)
	r.Reset()
}

// TestStreamResetMatchesFresh: a StreamRNG reset to a seed draws, under
// every name it had handed out and under new ones, exactly what a fresh
// one rooted at that seed draws, past the lazy seeding bound too.
func TestStreamResetMatchesFresh(t *testing.T) {
	r := NewStreamRNG(3)
	a := r.Stream("a")
	for i := 0; i < 500; i++ {
		a.Int63()
	}
	r.Stream("b").Float64()
	r.Reset(4)
	fresh := NewStreamRNG(4)
	for _, name := range []string{"a", "b", "c"} {
		for i := 0; i < 400; i++ {
			if got, want := r.Stream(name).Int63(), fresh.Stream(name).Int63(); got != want {
				t.Fatalf("stream %q draw %d after reset: %d, want %d", name, i, got, want)
			}
		}
	}
	if r.Stream("a") != a {
		t.Fatal("reset replaced a stream instead of reseeding it in place")
	}
}
