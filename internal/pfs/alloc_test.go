package pfs

import (
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
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
	kick := new(des.Signal)
	var ep *des.EventProc
	var h Handle
	var end int64
	var stepF, doneF des.StepFunc
	stepF = func() {
		end++
		io := h.newIO(ioWrite, 0, end, doneF)
		io.ep, io.end = ep, end
		io.setSize()
	}
	doneF = func() {
		if err := h.Err(); err != nil {
			t.Fatalf("create or set size: %v", err)
		}
		kick.WaitE(ep, stepF)
	}
	e.SpawnEvent("c0", func(p *des.EventProc) {
		ep = p
		c.CreateE(ep, &h, "/f", 0, 0, doneF)
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
			h := new(Handle)
			c.CreateE(ep, h, path, 1, 0, des.StepFunc(func() {
				if err := h.Err(); err != nil {
					t.Errorf("create %s: %v", path, err)
					return
				}
				h.WriteE(ep, 0, 64<<10, des.StepFunc(func() {
					werr := h.Err()
					h.CloseE(ep, des.StepFunc(func() {
						if werr == nil && h.Err() == nil {
							done++
						}
					}))
				}))
			}))
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
		{"metaCall", fs.metaFree.Len()},
		{"ioCall", fs.ioFree.Len()},
		{"rpcCall", fs.rpcFree.Len()},
	} {
		if l.n == 0 || l.n > maxFreeCalls {
			t.Errorf("%s free list holds %d after the burst, want 1..%d", l.name, l.n, maxFreeCalls)
		}
	}
}

// TestGoroutineWriteAllocs pins a steady-state goroutine-form 4 MiB
// Write — four 1 MiB RPCs — at stripe counts 1 and 4.
// The proc awaits the ioCall on its hosted EventProc, and the data RPCs
// run as pooled rpcCalls, each on the EventProc it embeds, joined with a
// single park, so a steady-state write allocates nothing.
func TestGoroutineWriteAllocs(t *testing.T) {
	for _, stripes := range []int{1, 4} {
		e := des.NewEngine(1)
		fs := New(e, fastConfig())
		c := fs.NewClient("c0")
		kick := new(des.Signal)
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
		if n != 0 {
			t.Errorf("stripes=%d: goroutine-form 4-RPC write: %v allocs per call, want 0", stripes, n)
		}
	}
}

// TestNewIOCallAllocs pins a write that finds the ioCall free list empty
// at one allocation, the ioCall, which is its own continuation: its
// chunk, RPC and error slices have inline backing for a one-RPC request,
// and so has the waiter list of the WaitGroup its fan-out joins on.
func TestNewIOCallAllocs(t *testing.T) {
	e := des.NewEngine(1)
	fs := New(e, fastConfig())
	c := fs.NewClient("c0")
	kick := new(des.Signal)
	var writeErr error
	stop := false
	e.Spawn("c0", func(p *des.Proc) {
		h, err := c.Create(p, "/f", 1, 1<<20)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		for {
			kick.Wait(p)
			if stop {
				return
			}
			for fs.ioFree.Len() > 0 {
				fs.ioFree.Get() // dropped: the write must allocate its own
			}
			if writeErr = h.Write(p, 0, 1<<20); writeErr != nil {
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
	if writeErr != nil || e.LiveProcs() != 0 {
		t.Fatalf("write: %v, %d live procs", writeErr, e.LiveProcs())
	}
	if st := c.Stats(); st.WriteRPCs != 52 {
		t.Fatalf("%d write RPCs, want 52", st.WriteRPCs)
	}
	if n != 1 {
		t.Errorf("one-RPC write on a new ioCall: %v allocs, want 1", n)
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
		kick := new(des.Signal)
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
// keeps one of per phase: EventProc's host field, the stat and readdir
// results and the Step continuations must not push a struct into a larger
// allocation size class, nor must anything grow the rpcCall that embeds
// its EventProc. The FS and the Handle stay in their size classes too.
func TestCallSizes(t *testing.T) {
	if n := unsafe.Sizeof(rpcCall{}); n > 224 {
		t.Errorf("rpcCall is %d bytes, want <= 224", n)
	}
	if n := unsafe.Sizeof(metaCall{}); n > 208 {
		t.Errorf("metaCall is %d bytes, want <= 208", n)
	}
	if n := unsafe.Sizeof(ioCall{}); n > 288 {
		t.Errorf("ioCall is %d bytes, want <= 288", n)
	}
	// A campaign cluster builds one FS and its MDS, and a
	// continuation-form caller embeds its Handle. A struct with pointers
	// over 512 bytes carries an 8-byte allocation header, so an FS over
	// 632 bytes would take the 704-byte class.
	if n := unsafe.Sizeof(FS{}); n > 632 {
		t.Errorf("FS is %d bytes, want <= 632", n)
	}
	if n := unsafe.Sizeof(mds{}); n > 224 {
		t.Errorf("mds is %d bytes, want <= 224", n)
	}
	if n := unsafe.Sizeof(Handle{}); n > 104 {
		t.Errorf("Handle is %d bytes, want <= 104", n)
	}
}

// TestClientChunkAllocs: a file system's first clientsPerChunk clients
// are one object each, so a small job pays for no unused slot, and later
// ones are carved from shared chunks of as many as fit in 32 KiB, well
// under one object per client.
func TestClientChunkAllocs(t *testing.T) {
	size := int(unsafe.Sizeof(Client{}))
	if n := size * clientsPerChunk; n > 32<<10 || n+size <= 32<<10 {
		t.Errorf("a client chunk is %d bytes, want the most %d-byte clients that fit in 32 KiB", n, size)
	}
	if size > 112 {
		t.Errorf("Client is %d bytes, want <= 112", size)
	}
	fs := New(des.NewEngine(1), fastConfig())
	newClient := func() { fs.NewClientAt("n0") }
	if n := testing.AllocsPerRun(clientsPerChunk/2, newClient); n != 1 {
		t.Errorf("NewClientAt below %d clients: %v allocs, want 1", clientsPerChunk, n)
	}
	for len(fs.clientList) < clientsPerChunk {
		newClient()
	}
	if n := testing.AllocsPerRun(4*clientsPerChunk, newClient); n != 0 {
		t.Errorf("NewClientAt past %d clients: %v allocs per client, want 0 (amortized)", clientsPerChunk, n)
	}
	seen := map[*Client]bool{}
	for _, c := range fs.clientList {
		if seen[c] || c.fs != fs || c.Node() != "n0" {
			t.Fatalf("client %p: duplicate %v, fs %p, node %q", c, seen[c], c.fs, c.Node())
		}
		seen[c] = true
	}
}

// TestRoundRobinLayoutAllocs: a round-robin layout's OSTs are a window of
// the file system's OST ring, so allocating one costs nothing, a layout
// that wraps past the last OST reads on from the first, and the window is
// capped, so an append to it copies instead of writing into the ring.
func TestRoundRobinLayoutAllocs(t *testing.T) {
	fs := New(des.NewEngine(1), fastConfig()) // 8 OSTs
	var l Layout
	if n := testing.AllocsPerRun(100, func() { l = fs.allocateLayout(3, 0) }); n != 0 {
		t.Errorf("round-robin layout: %v allocs, want 0", n)
	}
	fs.nextOST = 6
	l = fs.allocateLayout(4, 0)
	if want := []int{6, 7, 0, 1}; !slices.Equal(l.OSTs, want) || cap(l.OSTs) != len(l.OSTs) {
		t.Fatalf("layout from OST 6: %v (cap %d), want %v capped", l.OSTs, cap(l.OSTs), want)
	}
	_ = append(l.OSTs, 99)
	fs.nextOST = 3
	if wide := fs.allocateLayout(8, 0); !slices.Equal(wide.OSTs, []int{3, 4, 5, 6, 7, 0, 1, 2}) {
		t.Fatalf("a layout over the appended-to window reads %v, want [3 4 5 6 7 0 1 2]", wide.OSTs)
	}
}

// handleCycler drives create → write → fsync → close cycles of one file
// into one caller-owned Handle: it is its own Step for every call, and
// waits on kick between cycles.
type handleCycler struct {
	c      *Client
	ep     *des.EventProc
	kick   *des.Signal
	h      Handle
	path   string
	phase  uint8
	cycles int
	err    error
}

func (cy *handleCycler) Step() {
	if err := cy.h.Err(); err != nil && cy.err == nil {
		cy.err = err
	}
	switch cy.phase {
	case 0:
		// Unlink the last cycle's file at the MDS, at no simulated cost,
		// so that the namespace maps reuse its slot instead of growing.
		_ = cy.c.fs.unlinkNS(cy.path)
		cy.phase = 1
		cy.c.CreateE(cy.ep, &cy.h, cy.path, 1, 0, cy)
	case 1:
		cy.phase = 2
		cy.h.WriteE(cy.ep, 0, 64<<10, cy)
	case 2:
		cy.phase = 3
		cy.h.FsyncE(cy.ep, cy)
	case 3:
		cy.phase = 4
		cy.h.CloseE(cy.ep, cy)
	case 4:
		cy.cycles++
		cy.phase = 0
		cy.kick.WaitE(cy.ep, cy)
	}
}

// TestContinuationHandleAllocs pins a Step-driven create, write, fsync
// and close cycle into one reused caller-owned Handle: while the file
// system has created fewer than inodesAlone inodes, a cycle allocates
// exactly the new file's inode, and past that nothing, amortized, since
// inodes then come from shared chunks. The handle, the calls and their
// continuations allocate nothing.
func TestContinuationHandleAllocs(t *testing.T) {
	e := des.NewEngine(1)
	fs := New(e, fastConfig())
	cy := &handleCycler{c: fs.NewClient("c0"), kick: new(des.Signal), path: "/f"}
	e.SpawnEvent("c0", func(ep *des.EventProc) {
		cy.ep = ep
		cy.Step()
	})
	e.Run(des.MaxTime)
	round := func() {
		cy.kick.Fire()
		e.Run(des.MaxTime)
	}
	if n := testing.AllocsPerRun(100, round); n != 1 {
		t.Errorf("cycle below %d inodes: %v allocs, want 1 (the inode)", inodesAlone, n)
	}
	for fs.mds.inodesMade < inodesAlone {
		round()
	}
	if n := testing.AllocsPerRun(1000, round); n >= 0.01 {
		t.Errorf("cycle past %d inodes: %v allocs, want 0 (amortized, < 0.01)", inodesAlone, n)
	}
	if cy.err != nil {
		t.Fatalf("cycle: %v", cy.err)
	}
	if want := int(fs.mds.inodesMade); cy.cycles != want {
		t.Fatalf("%d cycles, %d inodes created", cy.cycles, want)
	}
	if st := fs.ClientStatsTotal(); st.WriteRPCs != uint64(cy.cycles) {
		t.Fatalf("%d write RPCs for %d cycles", st.WriteRPCs, cy.cycles)
	}
}

// inodeSink keeps the inodes TestInodeChunks allocates on the heap.
var inodeSink *inode

// TestInodeChunks: a file system allocates its first inodesAlone inodes
// one by one and carves the rest from 32 KiB chunks; a chunk whose
// inodes have all been unlinked is garbage once the file system has
// moved on to a later one; and Reset restarts the count.
func TestInodeChunks(t *testing.T) {
	if n := int(unsafe.Sizeof(inode{})) * inodesPerChunk; n > 32<<10 || n+int(unsafe.Sizeof(inode{})) <= 32<<10 {
		t.Errorf("an inode chunk is %d bytes, want the most inodes that fit in 32 KiB", n)
	}
	fs := New(des.NewEngine(1), fastConfig())
	const n = inodesAlone + 2*inodesPerChunk + 5
	allocs := testing.AllocsPerRun(1, func() {
		fs.Reset()
		for i := 0; i < n; i++ {
			inodeSink = fs.mds.newInode()
		}
	})
	if want := inodesAlone + (n-inodesAlone+inodesPerChunk-1)/inodesPerChunk; allocs != float64(want) {
		t.Errorf("%d inodes: %v allocations, want %d (%d alone, then chunks of %d)", n, allocs, want, inodesAlone, inodesPerChunk)
	}

	// Fill the first chunk and start the second through the namespace,
	// watching the first chunk's base, its first inode.
	fs.Reset()
	path := func(i int) string { return "/f" + strconv.Itoa(i) }
	var freed atomic.Bool
	for i := 0; i <= inodesAlone+inodesPerChunk; i++ {
		if _, err := fs.createNS(path(i), 1, 0); err != nil {
			t.Fatal(err)
		}
		if i == inodesAlone {
			runtime.SetFinalizer(fs.mds.inodes[path(i)], func(*inode) { freed.Store(true) })
		}
	}
	for i := inodesAlone; i < inodesAlone+inodesPerChunk; i++ {
		if err := fs.unlinkNS(path(i)); err != nil {
			t.Fatal(err)
		}
	}
	for try := 0; try < 100 && !freed.Load(); try++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !freed.Load() {
		t.Error("a chunk whose inodes were all unlinked is still reachable")
	}
	if n := len(fs.mds.inodes); n != inodesAlone+2 {
		t.Fatalf("%d paths after the unlinks, want %d", n, inodesAlone+2)
	}

	fs.Reset()
	if fs.mds.inodesMade != 0 || fs.mds.inodeChunk != nil {
		t.Fatalf("after Reset: %d inodes made, chunk %p kept", fs.mds.inodesMade, fs.mds.inodeChunk)
	}
	if a := testing.AllocsPerRun(10, func() { inodeSink = fs.mds.newInode() }); a != 1 {
		t.Errorf("inode after Reset: %v allocs, want 1 (allocated alone again)", a)
	}
}
