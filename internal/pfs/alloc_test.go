package pfs

import (
	"strconv"
	"testing"
	"unsafe"

	"pioeval/internal/des"
)

// TestMetaRPCEAllocs pins one metadata round trip in continuation form —
// a write's size update: two hops out through the I/O node, MDS queueing
// and service, two hops back, then the write's completion — at zero
// allocations in steady state.
func TestMetaRPCEAllocs(t *testing.T) {
	e := des.NewEngine(1)
	fs := New(e, DefaultConfig())
	c := fs.NewClient("c0")
	kick := des.NewSignal(e)
	var ep *des.EventProc
	var h *Handle
	var end int64
	var stepF func()
	var doneF func(error)
	stepF = func() {
		end++
		io := h.newIO(ioWrite, 0, end, doneF)
		io.ep, io.end = ep, end
		io.setSize()
	}
	doneF = func(err error) {
		if err != nil {
			t.Fatalf("set size: %v", err)
		}
		kick.WaitE(ep, stepF)
	}
	e.SpawnEvent("c0", func(p *des.EventProc) {
		ep = p
		c.CreateE(ep, "/f", 0, 0, func(nh *Handle, err error) {
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			h = nh
			doneF(nil)
		})
	})
	round := func() {
		kick.Fire()
		e.Run(des.MaxTime)
	}
	e.Run(des.MaxTime)
	round()
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Errorf("size update round trip: %v allocs per round, want 0", n)
	}
	if st := c.Stats(); st.MetaRPCs != 53 {
		t.Fatalf("%d metadata RPCs, want 53", st.MetaRPCs)
	}
	if fi := fs.mds.inodes["/f"]; fi.size != end {
		t.Fatalf("size %d after the updates, want %d", fi.size, end)
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

// TestGoroutineWriteAllocs pins a steady-state goroutine-form 4 MiB
// Write — four 1 MiB RPCs, write-behind off — at stripe counts 1 and 4.
// The proc awaits the ioCall on its hosted EventProc, and the data RPCs
// run as pooled rpcCalls joined with a single park, so what remains per
// call is one spawned EventProc per RPC.
func TestGoroutineWriteAllocs(t *testing.T) {
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
		if n > 4 {
			t.Errorf("stripes=%d: goroutine-form 4-RPC write: %v allocs per call, want <= 4", stripes, n)
		}
	}
}

// TestGoroutineNamespaceAllocs pins steady-state goroutine-form Stat and
// Mkdir (of an existing directory, so the namespace itself does not grow)
// at zero allocations: each awaits a pooled metaCall on the proc's hosted
// EventProc, through the I/O node, and reads its result from the call.
func TestGoroutineNamespaceAllocs(t *testing.T) {
	for _, op := range []string{"stat", "mkdir"} {
		e := des.NewEngine(1)
		fs := New(e, DefaultConfig())
		c := fs.NewClient("c0")
		kick := des.NewSignal(e)
		var opErr error
		stop := false
		e.Spawn("c0", func(p *des.Proc) {
			if err := c.Mkdir(p, "/d"); err != nil {
				t.Errorf("mkdir: %v", err)
				return
			}
			for {
				kick.Wait(p)
				if stop {
					return
				}
				if op == "stat" {
					var fi FileInfo
					if fi, opErr = c.Stat(p, "/d"); opErr == nil && !fi.IsDir {
						t.Errorf("stat /d: %+v is not a directory", fi)
					}
				} else if opErr = c.Mkdir(p, "/d"); opErr == ErrExist {
					opErr = nil
				}
				if opErr != nil {
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
		if opErr != nil || e.LiveProcs() != 0 {
			t.Fatalf("%s: error %v, %d live procs", op, opErr, e.LiveProcs())
		}
		if st := c.Stats(); st.MetaRPCs != 53 {
			t.Fatalf("%s: %d metadata RPCs, want 53", op, st.MetaRPCs)
		}
		if n != 0 {
			t.Errorf("goroutine-form %s: %v allocs per call, want 0", op, n)
		}
	}
}

// TestCallSizes pins the size of the call state every rank of a scale run
// keeps one of per phase: EventProc's host field and the stat and readdir
// results must not push a struct into a larger allocation size class.
func TestCallSizes(t *testing.T) {
	if n := unsafe.Sizeof(metaCall{}); n > 208 {
		t.Errorf("metaCall is %d bytes, want <= 208", n)
	}
	if n := unsafe.Sizeof(ioCall{}); n > 288 {
		t.Errorf("ioCall is %d bytes, want <= 288", n)
	}
}
