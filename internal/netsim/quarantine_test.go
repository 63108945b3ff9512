//go:build quarantine

package netsim

import (
	"strings"
	"testing"

	"pioeval/internal/des"
)

// TestQuarantinePoisonsRecycledTransfer: under the quarantine tag the
// fabric's free list keeps no finished TransferE state machine, and
// resuming a released one panics.
func TestQuarantinePoisonsRecycledTransfer(t *testing.T) {
	e := des.NewEngine(1)
	f := NewFabric(e, Config{Name: "t", Latency: des.Microsecond, LinkBandwidth: GBps})
	a, b := f.AddNode("a"), f.AddNode("b")
	done := 0
	e.SpawnEvent("x", func(ep *des.EventProc) { f.TransferE(ep, a, b, 4096, des.StepFunc(func() { done++ })) })
	e.Run(des.MaxTime)
	if f.xfers.Len() != 0 || done != 1 {
		t.Fatalf("free list holds %d, %d transfers; want 0 and 1", f.xfers.Len(), done)
	}
	x := f.xfers.Get()
	f.xfers.Put(x)
	defer func() {
		if s, _ := recover().(string); !strings.Contains(s, "resumed after it was recycled") {
			t.Errorf("resumed recycled transfer: recovered %q, want the quarantine panic", s)
		}
	}()
	x.Step()
}
