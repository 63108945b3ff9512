//go:build quarantine

package blockdev

import (
	"strings"
	"testing"

	"pioeval/internal/des"
)

// TestQuarantinePoisonsRecycledOp: under the quarantine tag a finished
// AccessE's state machine is poisoned instead of reused, and resuming it
// panics.
func TestQuarantinePoisonsRecycledOp(t *testing.T) {
	e := des.NewEngine(1)
	d := NewDevice(e, "d", DefaultSSD(), 1)
	o := &devOp{d: d}
	o.resumeF = o.resume
	d.opFree = append(d.opFree, o)
	e.SpawnEvent("x", func(ep *des.EventProc) { d.AccessE(ep, Request{Size: 4096, Write: true}, func() {}) })
	e.Run(des.MaxTime)
	if st := d.Stats(); len(d.opFree) != 0 || st.Writes != 1 {
		t.Fatalf("free list holds %d, %d writes; want 0 and 1", len(d.opFree), st.Writes)
	}
	defer func() {
		if s, _ := recover().(string); !strings.Contains(s, "resumed after it was recycled") {
			t.Errorf("resumed recycled device op: recovered %q, want the quarantine panic", s)
		}
	}()
	o.resume()
}
