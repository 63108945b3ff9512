//go:build quarantine

package pfs

import (
	"strings"
	"testing"

	"pioeval/internal/des"
)

// mustPanicRecycled runs resume, a step of a call whose last step has
// fired, and fails unless it panics as a resumed recycled call.
func mustPanicRecycled(t *testing.T, what string, resume func()) {
	t.Helper()
	defer func() {
		s, _ := recover().(string)
		if !strings.Contains(s, "resumed after it was recycled") {
			t.Errorf("%s resumed after recycling: recovered %q, want the quarantine panic", what, s)
		}
	}()
	resume()
}

// TestQuarantinePoisonsRecycledCalls: under the quarantine tag a call's
// free list poisons the struct it is handed, so a step that resumes a
// metadata call, an I/O call or a data RPC after its last step panics
// instead of running on state another operation may own. A create and a
// one-RPC write leave no call on a free list, and each kind of call
// released to its list panics when resumed.
func TestQuarantinePoisonsRecycledCalls(t *testing.T) {
	e := des.NewEngine(1)
	fs := New(e, fastConfig())
	c := fs.NewClient("c0")
	var werr error
	var h Handle
	e.SpawnEvent("c0", func(ep *des.EventProc) {
		c.CreateE(ep, &h, "/f", 1, 0, des.StepFunc(func() {
			if werr = h.Err(); werr != nil {
				return
			}
			h.WriteE(ep, 0, 4096, des.StepFunc(func() { werr = h.Err() }))
		}))
	})
	e.Run(des.MaxTime)
	if werr != nil || e.LiveProcs() != 0 {
		t.Fatalf("create and write: error %v, %d live procs", werr, e.LiveProcs())
	}
	if st := c.Stats(); st.WriteRPCs != 1 {
		t.Fatalf("%d write RPCs, want 1", st.WriteRPCs)
	}
	if fs.metaFree.Len()+fs.ioFree.Len()+fs.rpcFree.Len() != 0 {
		t.Fatal("a call went back on a free list under the quarantine tag")
	}
	m := fs.metaFree.Get()
	fs.metaFree.Put(m)
	io := fs.ioFree.Get()
	fs.ioFree.Put(io)
	rc := fs.rpcFree.Get()
	fs.rpcFree.Put(rc)
	mustPanicRecycled(t, "metaCall", m.Step)
	mustPanicRecycled(t, "ioCall", io.Step)
	mustPanicRecycled(t, "rpcCall", rc.Step)
}
