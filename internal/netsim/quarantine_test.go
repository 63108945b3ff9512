//go:build quarantine

package netsim

import (
	"strings"
	"testing"

	"pioeval/internal/des"
)

// TestQuarantinePoisonsRecycledTransfer: under the quarantine tag a
// finished TransferE's state machine is poisoned instead of reused, and
// resuming it panics.
func TestQuarantinePoisonsRecycledTransfer(t *testing.T) {
	e := des.NewEngine(1)
	f := NewFabric(e, Config{Name: "t", Latency: des.Microsecond, LinkBandwidth: GBps})
	a, b := f.AddNode("a"), f.AddNode("b")
	x := &transferE{f: f}
	x.resumeF = x.resume
	f.xferFree = append(f.xferFree, x)
	e.SpawnEvent("x", func(ep *des.EventProc) { f.TransferE(ep, a, b, 4096, func() {}) })
	e.Run(des.MaxTime)
	if len(f.xferFree) != 0 || f.Messages() != 1 {
		t.Fatalf("free list holds %d, %d transfers; want 0 and 1", len(f.xferFree), f.Messages())
	}
	defer func() {
		if s, _ := recover().(string); !strings.Contains(s, "resumed after it was recycled") {
			t.Errorf("resumed recycled transfer: recovered %q, want the quarantine panic", s)
		}
	}()
	x.resume()
}
