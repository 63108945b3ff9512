package posixio

import (
	"errors"
	"testing"

	"pioeval/internal/blockdev"
	"pioeval/internal/burstbuffer"
	"pioeval/internal/des"
	"pioeval/internal/pfs"
	"pioeval/internal/storage"
	"pioeval/internal/trace"
)

// newEnv builds an engine + FS + traced env and returns them.
func newEnv(seed int64) (*des.Engine, *Env, *trace.Collector) {
	e := des.NewEngine(seed)
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	cfg.OSTDevice = func() blockdev.Model { return blockdev.DefaultSSD() }
	fs := pfs.New(e, cfg)
	col := trace.NewCollector()
	env := NewEnv(storage.Direct(fs.NewClient("c0")), 0, col)
	return e, env, col
}

func run(t *testing.T, e *des.Engine, fn func(p *des.Proc)) {
	t.Helper()
	e.Spawn("t", fn)
	e.Run(des.MaxTime)
	if e.LiveProcs() != 0 {
		t.Fatal("deadlock")
	}
}

func TestOpenCreateWriteReadClose(t *testing.T) {
	e, env, col := newEnv(1)
	run(t, e, func(p *des.Proc) {
		fd, err := env.Open(p, "/f", OCreate|ORdwr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if n, err := env.Write(p, fd, 4096); n != 4096 || err != nil {
			t.Fatalf("write = %d, %v", n, err)
		}
		if n, err := env.Write(p, fd, 4096); n != 4096 || err != nil {
			t.Fatalf("write2 = %d, %v", n, err)
		}
		// Position advanced: file is 8 KB.
		fi, err := env.Stat(p, "/f")
		if err != nil || fi.Size != 8192 {
			t.Fatalf("size = %d, %v", fi.Size, err)
		}
		if err := env.Close(p, fd); err != nil {
			t.Fatal(err)
		}
		// A new descriptor reads from the start.
		fd, err = env.Open(p, "/f", ORdonly)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if n, err := env.Read(p, fd, 8192); n != 8192 || err != nil {
			t.Fatalf("read = %d, %v", n, err)
		}
		if err := env.Close(p, fd); err != nil {
			t.Fatal(err)
		}
		if len(env.fds) != 0 {
			t.Errorf("fd leak: %d", len(env.fds))
		}
	})
	// Trace should contain POSIX-layer records in order.
	var ops []string
	for _, r := range col.Records() {
		if r.Layer != trace.LayerPOSIX {
			t.Errorf("unexpected layer %v", r.Layer)
		}
		ops = append(ops, r.Op)
	}
	want := []string{"open", "write", "write", "stat", "close", "open", "read", "close"}
	if len(ops) != len(want) {
		t.Fatalf("trace ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("trace ops = %v, want %v", ops, want)
		}
	}
}

// TestCloseTracesPathOnRecycledHandle: a tiered target recycles its
// handle at Close, clearing it, and the close record still names the file.
func TestCloseTracesPathOnRecycledHandle(t *testing.T) {
	e := des.NewEngine(1)
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	fs := pfs.New(e, cfg)
	col := trace.NewCollector()
	bb := burstbuffer.New(e, fs, "bb0", burstbuffer.Config{})
	env := NewEnv(storage.NewTiered(fs.NewClient("c0"), bb), 0, col)
	run(t, e, func(p *des.Proc) {
		fd, err := env.Open(p, "/f", OCreate|ORdwr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := env.Close(p, fd); err != nil {
			t.Fatalf("close: %v", err)
		}
		bb.Shutdown()
	})
	recs := col.Records()
	if last := recs[len(recs)-1]; last.Op != "close" || last.Path != "/f" {
		t.Errorf("last record = %s %q, want close \"/f\"", last.Op, last.Path)
	}
}

func TestOpenFlags(t *testing.T) {
	e, env, _ := newEnv(1)
	run(t, e, func(p *des.Proc) {
		fd, err := env.Open(p, "/f", OCreate)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		_, _ = env.Write(p, fd, 100)
		_ = env.Close(p, fd)

		// O_CREAT on existing file opens it.
		fd2, err := env.Open(p, "/f", OCreate)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		_ = env.Close(p, fd2)

		// O_CREAT|O_EXCL on existing file fails.
		if _, err := env.Open(p, "/f", OCreate|OExcl); !errors.Is(err, pfs.ErrExist) {
			t.Errorf("excl reopen = %v, want ErrExist", err)
		}

		// Plain open of missing file fails.
		if _, err := env.Open(p, "/missing", ORdonly); !errors.Is(err, pfs.ErrNotExist) {
			t.Errorf("open missing = %v", err)
		}

		// O_APPEND starts at EOF.
		fd3, err := env.Open(p, "/f", OAppend)
		if err != nil {
			t.Fatal(err)
		}
		if pos := env.fds[fd3].pos; pos != 100 {
			t.Errorf("append pos = %d, want 100", pos)
		}
		_ = env.Close(p, fd3)
	})
}

func TestBadFD(t *testing.T) {
	e, env, _ := newEnv(1)
	run(t, e, func(p *des.Proc) {
		if _, err := env.Write(p, 99, 10); !errors.Is(err, ErrBadFD) {
			t.Errorf("write bad fd = %v", err)
		}
		if _, err := env.Read(p, 99, 10); !errors.Is(err, ErrBadFD) {
			t.Errorf("read bad fd = %v", err)
		}
		if err := env.Close(p, 99); !errors.Is(err, ErrBadFD) {
			t.Errorf("close bad fd = %v", err)
		}
		if err := env.Fsync(p, 99); !errors.Is(err, ErrBadFD) {
			t.Errorf("fsync bad fd = %v", err)
		}
	})
}

func TestDirOpsTraced(t *testing.T) {
	e, env, col := newEnv(1)
	run(t, e, func(p *des.Proc) {
		if err := env.Mkdir(p, "/d"); err != nil {
			t.Fatal(err)
		}
		fd, _ := env.Open(p, "/d/f", OCreate)
		_ = env.Close(p, fd)
		names, err := env.Readdir(p, "/d")
		if err != nil || len(names) != 1 {
			t.Fatalf("readdir = %v, %v", names, err)
		}
		if err := env.Unlink(p, "/d/f"); err != nil {
			t.Fatal(err)
		}
		if err := env.Rmdir(p, "/d"); err != nil {
			t.Fatal(err)
		}
	})
	sum := trace.Summarize(col.Records())
	if sum.MetaOps < 5 {
		t.Errorf("expected >=5 metadata records, got %d", sum.MetaOps)
	}
}

func TestStripeHintsApplied(t *testing.T) {
	e, env, _ := newEnv(1)
	env.StripeCount = 2
	env.StripeSize = 4096
	run(t, e, func(p *des.Proc) {
		fd, err := env.Open(p, "/f", OCreate)
		if err != nil {
			t.Fatal(err)
		}
		_ = env.Close(p, fd)
		fi, _ := env.Stat(p, "/f")
		if fi.Layout.StripeCount != 2 || fi.Layout.StripeSize != 4096 {
			t.Errorf("layout = %+v", fi.Layout)
		}
	})
}

func TestPwritePreadDoNotMovePosition(t *testing.T) {
	e, env, _ := newEnv(1)
	run(t, e, func(p *des.Proc) {
		fd, _ := env.Open(p, "/f", OCreate)
		_, _ = env.Pwrite(p, fd, 1<<20, 4096)
		if pos := env.fds[fd].pos; pos != 0 {
			t.Errorf("pos after pwrite = %d, want 0", pos)
		}
		_, _ = env.Pread(p, fd, 0, 4096)
		if pos := env.fds[fd].pos; pos != 0 {
			t.Errorf("pos after pread = %d, want 0", pos)
		}
		_ = env.Close(p, fd)
	})
}

// TestOpenCloseAllocs: opening and closing an existing file on a Direct
// target allocates exactly the PFS handle; the descriptor's state is
// reused from the last close. Descriptor numbers still count up.
func TestOpenCloseAllocs(t *testing.T) {
	e := des.NewEngine(1)
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	fs := pfs.New(e, cfg)
	env := NewEnv(storage.Direct(fs.NewClient("c0")), 0, nil)
	kick := new(des.Signal)
	var opErr error
	lastFD, stop := -1, false
	e.Spawn("t", func(p *des.Proc) {
		fd, err := env.Open(p, "/f", OCreate)
		if err == nil {
			err = env.Close(p, fd)
		}
		for opErr = err; opErr == nil; {
			kick.Wait(p)
			if stop {
				return
			}
			if fd, opErr = env.Open(p, "/f", ORdonly); opErr != nil {
				return
			}
			if fd <= lastFD {
				t.Errorf("descriptor %d after %d; numbers must count up", fd, lastFD)
			}
			lastFD = fd
			opErr = env.Close(p, fd)
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
	if opErr != nil || e.LiveProcs() != 0 || len(env.fds) != 0 {
		t.Fatalf("error %v, %d live procs, %d open descriptors", opErr, e.LiveProcs(), len(env.fds))
	}
	if n != 1 {
		t.Errorf("open/close: %v allocations, want 1 (the PFS handle)", n)
	}
}
