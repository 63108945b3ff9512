package netsim

import (
	"testing"

	"pioeval/internal/des"
)

// transferAllocs runs rounds of one TransferE per destination in dsts,
// all from node a and all started by one kick, and reports allocations
// per round after a warm-up round. Two destinations contend for a's
// sender link.
func transferAllocs(t *testing.T, dsts ...string) float64 {
	t.Helper()
	e := des.NewEngine(1)
	f := NewFabric(e, Config{Name: "t", Latency: des.Microsecond, LinkBandwidth: GBps, MTU: 4096})
	a := f.AddNode("a")
	kick := des.NewSignal(e)
	for _, name := range dsts {
		dst := f.AddNode(name)
		var ep *des.EventProc
		var stepF, doneF func()
		stepF = func() { f.TransferE(ep, a, dst, 10_000, doneF) }
		doneF = func() { kick.WaitE(ep, stepF) }
		e.SpawnEvent(name, func(p *des.EventProc) {
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
	allocs := testing.AllocsPerRun(50, round)
	if want := uint64(52 * len(dsts)); f.Messages() != want {
		t.Fatalf("%d transfers, want %d", f.Messages(), want)
	}
	return allocs
}

// TestTransferEAllocs pins TransferE at zero allocations in steady state,
// uncontended and with two transfers queued on one sender link.
func TestTransferEAllocs(t *testing.T) {
	if n := transferAllocs(t, "b"); n != 0 {
		t.Errorf("uncontended TransferE: %v allocs per round, want 0", n)
	}
	if n := transferAllocs(t, "b", "c"); n != 0 {
		t.Errorf("contended TransferE: %v allocs per round, want 0", n)
	}
}

// TestTransferFreeListBounded: a burst of 10k concurrent transfers through
// one NIC drains with the fabric's free list holding at most its cap.
func TestTransferFreeListBounded(t *testing.T) {
	e := des.NewEngine(1)
	f := NewFabric(e, Config{Name: "t", Latency: des.Microsecond, LinkBandwidth: GBps})
	a, b := f.AddNode("a"), f.AddNode("b")
	for i := 0; i < 10_000; i++ {
		e.SpawnEvent("x", func(ep *des.EventProc) { f.TransferE(ep, a, b, 1000, func() {}) })
	}
	e.Run(des.MaxTime)
	if f.Messages() != 10_000 {
		t.Fatalf("%d transfers, want 10000", f.Messages())
	}
	if n := len(f.xferFree); n == 0 || n > maxFreeTransfers {
		t.Errorf("free list holds %d transfers after the burst, want 1..%d", n, maxFreeTransfers)
	}
}

// TestTransferAllocs pins goroutine-form Transfer, which awaits TransferE
// on the proc's hosted EventProc, at zero allocations in steady state,
// with two transfers queued on one sender link.
func TestTransferAllocs(t *testing.T) {
	e := des.NewEngine(1)
	f := NewFabric(e, Config{Name: "t", Latency: des.Microsecond, LinkBandwidth: GBps, MTU: 4096})
	a := f.AddNode("a")
	kick := des.NewSignal(e)
	stop := false
	for _, name := range []string{"b", "c"} {
		dst := f.AddNode(name)
		e.Spawn(name, func(p *des.Proc) {
			for {
				kick.Wait(p)
				if stop {
					return
				}
				f.Transfer(p, a, dst, 10_000)
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
		t.Errorf("contended Transfer: %v allocs per round, want 0", n)
	}
	if f.Messages() != 104 || e.LiveProcs() != 0 {
		t.Fatalf("%d transfers, %d live procs; want 104, 0", f.Messages(), e.LiveProcs())
	}
}
