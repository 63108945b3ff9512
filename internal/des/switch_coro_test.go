//go:build go1.23

package des

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"pioeval/internal/leakcheck"
)

// restartAllocs is what restarting TestSpawnOnKeepsCoroutine's 64
// finished procs allocates per run with coroutine procs: nothing, since
// each restart resumes the coroutine its proc parked. A new coroutine
// costs 13 allocations (go1.24), 832 for the 64.
const restartAllocs = 0

// TestProcSize pins Proc at 104 bytes, which the allocator rounds up to
// its 112-byte size class: goroutine-form ranks keep one each. The hosted
// EventProc is part of it, so a proc that blocks costs one object where a
// Proc and an EventProc allocated on its first Await would cost two.
func TestProcSize(t *testing.T) {
	if n := unsafe.Sizeof(Proc{}); n != 104 {
		t.Errorf("Proc is %d bytes, want 104", n)
	}
}

// TestProcBodyPanicSurfacesFromRun: with procs on coroutines, a panic in a
// proc body (not a callback) surfaces from Run with its original value and
// the clock at the panic, whichever goroutine held the loop before, where a
// panicking goroutine proc would end the process. The other proc stays
// blocked, and a later Run completes it.
func TestProcBodyPanicSurfacesFromRun(t *testing.T) {
	leakcheck.Check(t)
	e := NewEngine(1)
	resumed := Time(-1)
	e.Spawn("w", func(p *Proc) {
		p.Wait(10)
		resumed = p.Now()
	})
	e.Spawn("bad", func(p *Proc) {
		p.Wait(5)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("Run raised %v, want the body's panic value boom", r)
			}
		}()
		e.Run(MaxTime)
		t.Fatal("Run returned without raising the body's panic")
	}()
	if e.Now() != 5 {
		t.Fatalf("clock after the panic = %v, want 5", e.Now())
	}
	if end := e.Run(MaxTime); end != 10 || resumed != 10 {
		t.Fatalf("second Run ended at %v with the proc resumed at %v, want 10 and 10", end, resumed)
	}
}

// TestAbandonUnwindsLiveProcs: Abandon ends the coroutines of an engine's
// procs, parked and live: a first-run proc and a restarted one, each
// suspended mid-body past the horizon, unwind from their blocking calls
// with their deferred calls run, a finished kept proc's parked coroutine
// returns, and no goroutine outlives the test. The live procs stay
// counted by LiveProcs, as a panicked proc does. A body that blocks in a
// deferred call while it unwinds makes Abandon panic, naming the proc,
// and its coroutine still ends.
func TestAbandonUnwindsLiveProcs(t *testing.T) {
	leakcheck.Check(t)
	e := NewEngine(1)
	procs := make([]Proc, 3)
	for i := range procs {
		e.SpawnOn(&procs[i], "w", i, func(p *Proc) { p.Wait(1) })
	}
	e.Run(MaxTime)
	var unwound []string
	block := func(p *Proc) {
		defer func() { unwound = append(unwound, p.Name()) }()
		p.Wait(100)
		t.Errorf("%s resumed past its blocking call", p.Name())
	}
	e.SpawnOn(&procs[0], "kept", -1, block)
	e.SpawnOn(&procs[1], "kept", -1, func(*Proc) {})
	first := new(Proc)
	e.SpawnOn(first, "first", -1, block)
	e.Run(50)
	e.Abandon()
	if got := strings.Join(unwound, " "); got != "kept first" {
		t.Errorf("unwound %q, want the two blocked bodies in list order", got)
	}
	if n := e.LiveProcs(); n != 2 {
		t.Errorf("%d live procs after Abandon, want 2", n)
	}

	e = NewEngine(1)
	e.SpawnOn(new(Proc), "stuck", -1, func(p *Proc) {
		defer p.Wait(1)
		p.Wait(100)
	})
	e.Run(50)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "stuck") {
			t.Errorf("Abandon of a body that blocks while unwinding: panic %v, want one naming the proc", r)
		}
	}()
	e.Abandon()
}
