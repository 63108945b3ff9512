package pfs

import (
	"strconv"
	"testing"

	"pioeval/internal/des"
)

// TestMetaRPCEAllocs pins one metadata round trip in continuation form —
// two hops out through the I/O node, MDS queueing and service, two hops
// back — at zero allocations in steady state.
func TestMetaRPCEAllocs(t *testing.T) {
	e := des.NewEngine(1)
	fs := New(e, DefaultConfig())
	c := fs.NewClient("c0")
	kick := des.NewSignal(e)
	var ep *des.EventProc
	var rpcErr error
	var end int64
	var stepF, doneF func()
	stepF = func() {
		end++
		c.metaRPCE(ep, OpSetSize, "/f", end, &rpcErr, doneF)
	}
	doneF = func() {
		if rpcErr != nil {
			t.Fatalf("set size: %v", rpcErr)
		}
		kick.WaitE(ep, stepF)
	}
	e.SpawnEvent("c0", func(p *des.EventProc) {
		ep = p
		c.CreateE(ep, "/f", 0, 0, func(_ *Handle, err error) {
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			doneF()
		})
	})
	round := func() {
		kick.Fire()
		e.Run(des.MaxTime)
	}
	e.Run(des.MaxTime)
	round()
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Errorf("metaRPCE round trip: %v allocs per round, want 0", n)
	}
	if st := c.Stats(); st.MetaRPCs != 53 {
		t.Fatalf("%d metadata RPCs, want 53", st.MetaRPCs)
	}
}

// TestCallFreeListsBounded: after a burst of 10k concurrent ranks, each
// creating, writing and closing its own file, every call free list on the
// FS holds at most its cap.
func TestCallFreeListsBounded(t *testing.T) {
	const ranks = 10_000
	e := des.NewEngine(1)
	fs := New(e, fastConfig())
	var done int
	for i := 0; i < ranks; i++ {
		c := fs.NewClientAt("n" + strconv.Itoa(i/64))
		path := "/f" + strconv.Itoa(i)
		e.SpawnEvent("r", func(ep *des.EventProc) {
			c.CreateE(ep, path, 1, 0, func(h *Handle, err error) {
				if err != nil {
					t.Errorf("create %s: %v", path, err)
					return
				}
				h.WriteE(ep, 0, 64<<10, func(err error) {
					h.CloseE(ep, func(cerr error) {
						if err == nil && cerr == nil {
							done++
						}
					})
				})
			})
		})
	}
	e.Run(des.MaxTime)
	if done != ranks {
		t.Fatalf("%d of %d ranks completed", done, ranks)
	}
	for _, l := range []struct {
		name string
		n    int
	}{
		{"metaCall", len(fs.metaFree.items)},
		{"ioCall", len(fs.ioFree.items)},
		{"rpcCall", len(fs.rpcFree.items)},
	} {
		if l.n == 0 || l.n > maxFreeCalls {
			t.Errorf("%s free list holds %d after the burst, want 1..%d", l.name, l.n, maxFreeCalls)
		}
	}
}

// TestDoIOAllocs pins a steady-state goroutine-form 4 MiB Write — four
// 1 MiB RPCs, write-behind off — at stripe counts 1 and 4. The data RPCs
// run as pooled continuation rpcCalls that the calling Proc joins with a
// single park, so what remains per call is one EventProc per RPC and the
// request's chunk slice; the size update's namespace closure does not
// escape.
func TestDoIOAllocs(t *testing.T) {
	for _, stripes := range []int{1, 4} {
		e := des.NewEngine(1)
		fs := New(e, fastConfig())
		c := fs.NewClient("c0")
		kick := des.NewSignal(e)
		var writeErr error
		stop := false
		e.Spawn("c0", func(p *des.Proc) {
			h, err := c.Create(p, "/f", stripes, 1<<20)
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			for {
				kick.Wait(p)
				if stop {
					return
				}
				if writeErr = h.Write(p, 0, 4<<20); writeErr != nil {
					return
				}
			}
		})
		round := func() {
			kick.Fire()
			e.Run(des.MaxTime)
		}
		e.Run(des.MaxTime)
		round()
		n := testing.AllocsPerRun(50, round)
		stop = true
		round()
		if e.LiveProcs() != 0 {
			t.Fatalf("stripes=%d: writer proc did not finish", stripes)
		}
		if writeErr != nil {
			t.Fatalf("stripes=%d: write: %v", stripes, writeErr)
		}
		if st := c.Stats(); st.WriteRPCs != 4*52 {
			t.Fatalf("stripes=%d: %d write RPCs, want %d", stripes, st.WriteRPCs, 4*52)
		}
		if n > 5 {
			t.Errorf("stripes=%d: goroutine-form 4-RPC write: %v allocs per call, want <= 5", stripes, n)
		}
	}
}
