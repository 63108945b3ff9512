package netsim

import (
	"fmt"
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
	f := NewFabric(e, Config{Name: "t", Latency: des.Microsecond, LinkBandwidth: GBps})
	a := f.AddNode("a")
	kick := new(des.Signal)
	done := -len(dsts) // the first wait on kick is no transfer's completion
	for _, name := range dsts {
		dst := f.AddNode(name)
		var ep *des.EventProc
		var stepF, doneF des.StepFunc
		stepF = func() { f.TransferE(ep, a, dst, 10_000, doneF) }
		doneF = func() {
			done++
			kick.WaitE(ep, stepF)
		}
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
	if want := 52 * len(dsts); done != want {
		t.Fatalf("%d transfers, want %d", done, want)
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
	done := 0
	count := des.StepFunc(func() { done++ })
	for i := 0; i < 10_000; i++ {
		e.SpawnEvent("x", func(ep *des.EventProc) { f.TransferE(ep, a, b, 1000, count) })
	}
	e.Run(des.MaxTime)
	if done != 10_000 {
		t.Fatalf("%d transfers, want 10000", done)
	}
	if n := f.xfers.Len(); n == 0 || n > maxFreeTransfers {
		t.Errorf("free list holds %d transfers after the burst, want 1..%d", n, maxFreeTransfers)
	}
}

// TestTransferAllocs pins a goroutine-form transfer, a proc awaiting
// TransferE on its hosted EventProc, at zero allocations in steady state,
// with two transfers queued on one sender link.
func TestTransferAllocs(t *testing.T) {
	e := des.NewEngine(1)
	f := NewFabric(e, Config{Name: "t", Latency: des.Microsecond, LinkBandwidth: GBps})
	a := f.AddNode("a")
	kick := new(des.Signal)
	stop := false
	done := 0
	for _, name := range []string{"b", "c"} {
		dst := f.AddNode(name)
		e.Spawn(name, func(p *des.Proc) {
			for {
				kick.Wait(p)
				if stop {
					return
				}
				transfer(p, f, a, dst, 10_000)
				done++
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
		t.Errorf("contended transfer: %v allocs per round, want 0", n)
	}
	if done != 104 || e.LiveProcs() != 0 {
		t.Fatalf("%d transfers, %d live procs; want 104, 0", done, e.LiveProcs())
	}
}

// TestAddNodeAllocs pins AddNode at one object, the Node: the links are
// resources embedded by value, not allocated apart, whose names are
// formatted only when asked for; the fabric's node map grows too rarely to
// count per call.
func TestAddNodeAllocs(t *testing.T) {
	f := NewFabric(des.NewEngine(1), Config{Name: "t", Latency: des.Microsecond, LinkBandwidth: GBps})
	names := make([]string, 101) // AllocsPerRun's warm-up call plus 100
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	var node *Node
	i := 0
	n := testing.AllocsPerRun(100, func() {
		node = f.AddNode(names[i])
		i++
	})
	if n != 1 {
		t.Errorf("AddNode: %v allocs, want 1", n)
	}
	if node.in.Name() != "t.n100.in" || node.out.Name() != "t.n100.out" || node.in.Capacity() != 1 {
		t.Fatalf("links %q, %q, capacity %d", node.in.Name(), node.out.Name(), node.in.Capacity())
	}
}
