//go:build quarantine

package blockdev

import (
	"strings"
	"testing"

	"pioeval/internal/des"
)

// TestQuarantinePoisonsRecycledOp: under the quarantine tag the device's
// free list keeps no finished AccessE state machine, and resuming a
// released one panics.
func TestQuarantinePoisonsRecycledOp(t *testing.T) {
	e := des.NewEngine(1)
	d := NewDevice(e, "d", DefaultSSD(), 1)
	e.SpawnEvent("x", func(ep *des.EventProc) { d.AccessE(ep, Request{Size: 4096, Write: true}, nop) })
	e.Run(des.MaxTime)
	if st := d.Stats(); d.ops.Len() != 0 || st.Writes != 1 {
		t.Fatalf("free list holds %d, %d writes; want 0 and 1", d.ops.Len(), st.Writes)
	}
	o := d.ops.Get()
	d.ops.Put(o)
	defer func() {
		if s, _ := recover().(string); !strings.Contains(s, "resumed after it was recycled") {
			t.Errorf("resumed recycled device op: recovered %q, want the quarantine panic", s)
		}
	}()
	o.Step()
}
