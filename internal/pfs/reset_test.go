package pfs

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pioeval/internal/des"
)

// resetConfig is a two-fabric deployment with readahead and the default
// resilience policy, so a run touches every part of an
// FS that Reset restores.
func resetConfig() Config {
	cfg := fastConfig()
	cfg.NumIONodes = 2
	cfg.ClientReadahead = 1 << 20
	cfg.Resilience = DefaultResilience()
	return cfg
}

// faultedRun runs generated programs on three clients, two on goroutine
// procs and one on an event proc, with observers installed and, when
// faulted, an OST crash and slowdown, transient errors, degraded links
// and an MDS outage that are still in force when the run ends. It writes
// every op's completion time and error and the observer events to log,
// and returns log's contents and fsView after the run.
func faultedRun(t *testing.T, e *des.Engine, fs *FS, seed int64, faulted bool, log *strings.Builder) string {
	t.Helper()
	fs.SetOpObserver(func(ev OpEvent) { fmt.Fprintf(log, "op %+v\n", ev) })
	fs.SetOSTObserver(func(ev OSTEvent) { fmt.Fprintf(log, "ost %+v\n", ev) })
	if faulted {
		e.After(5*des.Millisecond, func() {
			fs.CrashOST(1)
			if err := fs.InjectOSTSlowdown(2, 4); err != nil {
				panic(err)
			}
			if err := fs.SetTransientErrorRate(0.1); err != nil {
				panic(err)
			}
			if err := fs.SetLinkDegradation(2); err != nil {
				panic(err)
			}
		})
		e.After(5*des.Second, func() { fs.SetMDSAvailable(false) })
	}
	rng := rand.New(rand.NewSource(seed))
	for ci := 0; ci < 3; ci++ {
		prog := genFormProgram(rng, 12)
		c := fs.NewClient("c" + strconv.Itoa(ci))
		dir := "/d" + strconv.Itoa(ci)
		path := dir + "/f"
		record := func(i int, err error) { fmt.Fprintf(log, "c%d op%d t=%d err=%v\n", ci, i, e.Now(), err) }
		if ci == 2 {
			e.SpawnEvent(path, func(ep *des.EventProc) {
				h := new(Handle)
				c.CreateE(ep, h, "/e", 0, 0, des.StepFunc(func() {
					record(-1, h.Err())
					if h.Err() == nil {
						h.WriteE(ep, 0, 3<<20, des.StepFunc(func() { record(0, h.Err()) }))
					}
				}))
			})
			continue
		}
		e.Spawn(path, func(p *des.Proc) {
			record(-2, c.Mkdir(p, dir))
			h, err := c.Create(p, path, 0, 0)
			record(-1, err)
			if err != nil {
				return
			}
			for i, op := range prog {
				switch op.kind {
				case fopWrite:
					err = h.Write(p, op.off, op.size)
				case fopRead:
					err = h.Read(p, op.off, op.size)
				case fopFsync:
					err = h.Fsync(p)
				case fopClose:
					err = h.Close(p)
				case fopOpen:
					var nh *Handle
					if nh, err = c.Open(p, path); err == nil {
						h = nh
					}
				}
				record(i, err)
			}
			names, err := c.Readdir(p, "/")
			fmt.Fprintf(log, "c%d readdir / = %v %v\n", ci, names, err)
		})
	}
	e.Run(des.MaxTime)
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("%d procs deadlocked", n)
	}
	return log.String() + fsView(e, fs)
}

// fsView is the state a run leaves in an FS and its engine, read without
// running a client: server and client statistics, fault state and log,
// the namespace, the OSTs' object maps, the fabrics' node sets, and draws
// from the engine's streams, one the file system uses and one new.
func fsView(e *des.Engine, fs *FS) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d dispatched=%d live=%d\n", e.Now(), e.Dispatches(), e.LiveProcs())
	fmt.Fprintf(&b, "mds=%+v down=%v transient=%g\n", fs.MDSStats(), fs.mds.down, fs.transientRate)
	fmt.Fprintf(&b, "osts=%+v\nclients=%+v\n", fs.OSTStats(), fs.ClientStatsTotal())
	fmt.Fprintf(&b, "faults=%#v\npaths=%v\n", fs.FaultLog(), paths(fs))
	for i := 0; i < fs.NumOSTs(); i++ {
		at, down := fs.OSTDownSince(i)
		o := fs.osts[i]
		fmt.Fprintf(&b, "ost%d down=%v since=%d objects=%d alloc=%d\n", i, down, at, len(o.objBase), o.allocPtr)
	}
	for _, name := range []string{"mds", "oss0", "oss3", "ionode0", "ionode1", "c0", "c1", "c2", "c3"} {
		_, onC := fs.compute.Node(name)
		_, onS := fs.storage.Node(name)
		fmt.Fprintf(&b, "node %s compute=%v storage=%v\n", name, onC, onS)
	}
	fmt.Fprintf(&b, "backoff=%d new=%d\n", e.RNG().Stream("pfs.backoff").Int63(), e.RNG().Stream("reset.new").Int63())
	return b.String()
}

// paths returns every namespace path of fs in sorted order.
func paths(fs *FS) []string {
	out := make([]string, 0, len(fs.mds.inodes))
	for p := range fs.mds.inodes {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// TestFSResetMatchesFresh: a file system and engine that ran a faulted
// workload, then were reset, look exactly like fresh ones through every
// accessor, and run a second workload, faulted or not, exactly as fresh
// ones do: the same op times and errors, observer events, statistics,
// fault log and namespace.
func TestFSResetMatchesFresh(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		used := des.NewEngine(1)
		fs := New(used, resetConfig())
		var dirtyLog strings.Builder
		dirty := faultedRun(t, used, fs, 1, true, &dirtyLog)
		for _, want := range []string{"ost-crash", "link-degrade", "mds-down", "paths=[/ /d0", "node c0 compute=true"} {
			if !strings.Contains(dirty, want) {
				t.Fatalf("the dirtying run shows no %q:\n%s", want, dirty)
			}
		}
		used.Reset(7)
		fs.Reset()
		if fs.observer != nil || fs.ostObserver != nil {
			t.Fatal("reset kept the dirtying run's observers")
		}

		fresh := des.NewEngine(7)
		ffs := New(fresh, resetConfig())
		if got, want := fsView(used, fs), fsView(fresh, ffs); got != want {
			t.Fatalf("reset file system differs from a fresh one:\n got %s\nwant %s", got, want)
		}
		if !reflect.DeepEqual(fs.FaultLog(), ffs.FaultLog()) {
			t.Fatalf("fault log after reset %#v, fresh %#v", fs.FaultLog(), ffs.FaultLog())
		}
		used.Reset(7)
		fresh.Reset(7)
		var log, freshLog strings.Builder
		if got, want := faultedRun(t, used, fs, 2, faulted, &log), faultedRun(t, fresh, ffs, 2, faulted, &freshLog); got != want {
			t.Fatalf("faulted=%v: reset file system runs differently:\n got %s\nwant %s", faulted, got, want)
		}
	}
}

// TestFSResetBusyPanics: a file system with a request still at an OST
// does not reset.
func TestFSResetBusyPanics(t *testing.T) {
	e := des.NewEngine(1)
	fs := New(e, fastConfig())
	c := fs.NewClient("c")
	e.Spawn("w", func(p *des.Proc) {
		h, err := c.Create(p, "/f", 0, 0)
		if err == nil {
			h.Write(p, 0, 64<<20)
		}
	})
	e.Run(20 * des.Millisecond)
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, des.ErrLiveReset) {
			t.Fatalf("panic %v, want des.ErrLiveReset", err)
		}
	}()
	fs.Reset()
}

// TestStaleHandle: a handle opened before a Reset is stale on the client
// the reset retired and NewClient revived: every operation on it fails
// with ErrStaleHandle, in goroutine and continuation form, open or
// closed, and none reaches a server or an observer. A stale caller-owned handle may be opened again.
func TestStaleHandle(t *testing.T) {
	e := des.NewEngine(1)
	fs := New(e, resetConfig())
	c := fs.NewClient("c0")
	var g, closed *Handle
	var eh Handle
	e.Spawn("g", func(p *des.Proc) {
		var err error
		if g, err = c.Create(p, "/g", 0, 0); err == nil {
			err = g.Write(p, 0, 1<<20)
		}
		if closed, err = c.Create(p, "/closed", 0, 0); err == nil {
			err = closed.Close(p)
		}
		if err != nil {
			t.Errorf("before the reset: %v", err)
		}
	})
	e.SpawnEvent("ev", func(ep *des.EventProc) {
		c.CreateE(ep, &eh, "/e", 0, 0, des.StepFunc(func() {
			if eh.Err() == nil {
				eh.WriteE(ep, 0, 1<<20, des.NoStep{})
			}
		}))
	})
	e.Run(des.MaxTime)
	if eh.Err() != nil || eh.closed {
		t.Fatalf("the continuation handle did not open: %v", eh.Err())
	}

	e.Reset(1)
	fs.Reset()
	if fs.NewClient("c0") != c {
		t.Fatal("NewClient did not revive the retired client")
	}
	var events int
	fs.SetOpObserver(func(OpEvent) { events++ })
	fs.SetOSTObserver(func(OSTEvent) { events++ })
	var errs []error
	e.Spawn("g", func(p *des.Proc) {
		errs = append(errs, g.Write(p, 0, 4096), g.Read(p, 0, 4096), g.Fsync(p), g.Close(p), g.Close(p), closed.Close(p), closed.Read(p, 0, 1))
	})
	e.SpawnEvent("ev", func(ep *des.EventProc) {
		record := des.StepFunc(func() { errs = append(errs, eh.Err()) })
		eh.WriteE(ep, 0, 4096, record)
		eh.FsyncE(ep, record)
		eh.CloseE(ep, record)
	})
	e.Run(des.MaxTime)
	if len(errs) != 10 {
		t.Fatalf("%d outcomes, want 10", len(errs))
	}
	for i, err := range errs {
		if !errors.Is(err, ErrStaleHandle) {
			t.Errorf("operation %d on a stale handle: %v, want ErrStaleHandle", i, err)
		}
	}
	if st, md := c.Stats(), fs.MDSStats(); st != (ClientStats{}) || md.TotalOps != 0 || events != 0 {
		t.Errorf("stale operations reached the servers: client %+v, %d MDS ops, %d observed events", st, md.TotalOps, events)
	}

	e.SpawnEvent("reopen", func(ep *des.EventProc) {
		c.CreateE(ep, &eh, "/e", 0, 0, des.StepFunc(func() {
			if eh.Err() == nil {
				eh.WriteE(ep, 0, 4096, des.NoStep{})
			}
		}))
	})
	e.Run(des.MaxTime)
	if eh.Err() != nil || eh.Stale() {
		t.Errorf("re-opening a stale handle: %v (stale %v)", eh.Err(), eh.Stale())
	}
}

// TestRevivedClientAllocs: a reset file system hands every retired
// client back to NewClient of its node name, and resetting and reviving
// allocates nothing.
func TestRevivedClientAllocs(t *testing.T) {
	e := des.NewEngine(1)
	cfg := fastConfig()
	cfg.NumIONodes = 2
	fs := New(e, cfg)
	names := []string{"camp0", "camp1", "camp2", "camp3"}
	var first []*Client
	for _, name := range names {
		first = append(first, fs.NewClient(name))
	}
	revive := func() {
		fs.Reset()
		for i, name := range names {
			if c := fs.NewClient(name); c != first[i] {
				t.Fatalf("NewClient(%s) after a reset is a new client", name)
			}
		}
	}
	if n := testing.AllocsPerRun(100, revive); n != 0 {
		t.Errorf("reset and revive %d clients: %v allocs, want 0", len(names), n)
	}
	if got := first[3].IONode(); got != "ionode1" {
		t.Errorf("the fourth revived client routes through %q, want ionode1", got)
	}
}
