package blockdev

import (
	"testing"

	"pioeval/internal/des"
)

// TestAccessEAllocs pins AccessE at zero allocations in steady state, with
// two requests contending for a depth-1 queue.
func TestAccessEAllocs(t *testing.T) {
	e := des.NewEngine(1)
	d := NewDevice(e, "d", DefaultSSD(), 1)
	kick := new(des.Signal)
	for i := 0; i < 2; i++ {
		req := Request{Offset: int64(i) << 20, Size: 4096, Write: i == 0}
		var ep *des.EventProc
		var stepF, doneF des.StepFunc
		stepF = func() { d.AccessE(ep, req, doneF) }
		doneF = func() { kick.WaitE(ep, stepF) }
		e.SpawnEvent("x", func(p *des.EventProc) {
			ep = p
			doneF()
		})
	}
	round := func() {
		kick.Fire()
		e.Run(des.MaxTime)
	}
	e.Run(des.MaxTime)
	round()
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Errorf("AccessE: %v allocs per round, want 0", n)
	}
	if st := d.Stats(); st.Reads+st.Writes != 104 || st.PeakQueue != 1 {
		t.Fatalf("stats %+v: want 104 requests, one queued at a time", st)
	}
}

// TestAccessEFreeListBounded: a burst of 10k concurrent requests drains
// with the device's free list holding at most its cap.
func TestAccessEFreeListBounded(t *testing.T) {
	e := des.NewEngine(1)
	d := NewDevice(e, "d", DefaultNVMe(), 8)
	for i := 0; i < 10_000; i++ {
		off := int64(i) * 4096
		e.SpawnEvent("x", func(ep *des.EventProc) {
			d.AccessE(ep, Request{Offset: off, Size: 4096}, nop)
		})
	}
	e.Run(des.MaxTime)
	if st := d.Stats(); st.Reads != 10_000 {
		t.Fatalf("%d reads, want 10000", st.Reads)
	}
	if n := d.ops.Len(); n == 0 || n > maxFreeOps {
		t.Errorf("free list holds %d ops after the burst, want 1..%d", n, maxFreeOps)
	}
}

// TestAccessAllocs pins goroutine-form Access, which awaits AccessE on the
// proc's hosted EventProc, at zero allocations in steady state, with two
// requests contending for a depth-1 queue.
func TestAccessAllocs(t *testing.T) {
	e := des.NewEngine(1)
	d := NewDevice(e, "d", DefaultSSD(), 1)
	kick := new(des.Signal)
	stop := false
	for i := 0; i < 2; i++ {
		req := Request{Offset: int64(i) << 20, Size: 4096, Write: i == 0}
		e.Spawn("x", func(p *des.Proc) {
			for {
				kick.Wait(p)
				if stop {
					return
				}
				d.Access(p, req)
			}
		})
	}
	round := func() {
		kick.Fire()
		e.Run(des.MaxTime)
	}
	e.Run(des.MaxTime)
	round()
	n := testing.AllocsPerRun(50, round)
	stop = true
	round()
	if n != 0 {
		t.Errorf("Access: %v allocs per round, want 0", n)
	}
	if st := d.Stats(); st.Reads+st.Writes != 104 || st.PeakQueue != 1 || e.LiveProcs() != 0 {
		t.Fatalf("stats %+v, %d live procs: want 104 requests, one queued at a time, no live proc", st, e.LiveProcs())
	}
}

// TestNewDeviceAllocs pins NewDevice at one object, the Device: the queue
// and media resources are embedded by value, not allocated apart, and
// their names are formatted only when asked for.
func TestNewDeviceAllocs(t *testing.T) {
	e, model := des.NewEngine(1), DefaultHDD()
	var d *Device
	n := testing.AllocsPerRun(100, func() { d = NewDevice(e, "ost0", model, 4) })
	if n != 1 {
		t.Errorf("NewDevice: %v allocs, want 1", n)
	}
	if d.queue.Name() != "dev.ost0" || d.queue.Capacity() != 4 || d.media.Name() != "media.ost0" || d.media.Capacity() != 1 {
		t.Fatalf("queue %q/%d, media %q/%d", d.queue.Name(), d.queue.Capacity(), d.media.Name(), d.media.Capacity())
	}
}
