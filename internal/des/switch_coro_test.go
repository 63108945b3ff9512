//go:build go1.23

package des

import (
	"testing"
	"unsafe"

	"pioeval/internal/leakcheck"
)

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
