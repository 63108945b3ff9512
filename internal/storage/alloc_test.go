package storage

import (
	"testing"

	"pioeval/internal/des"
	"pioeval/internal/pfs"
)

// TestTieredOpenAllocs: a create/close and an open/close through TieredBB
// allocate nothing: the tier handle embeds the PFS handle it opens into
// and is recycled at Close. The MDS is warmed past the inodes it
// allocates one by one, so the file a create makes comes from a chunk.
func TestTieredOpenAllocs(t *testing.T) {
	for _, op := range []string{"create", "open"} {
		e, fs := newCluster(1)
		tgt := NewTiered(fs.NewClient("cn0"), nil)
		kick := new(des.Signal)
		var opErr error
		stop := false
		e.Spawn("app", func(p *des.Proc) {
			cycle := func(path string, create bool) error {
				if err := closeOpened(p, tgt, create, path); err != nil || !create {
					return err
				}
				return tgt.Unlink(p, path)
			}
			for i := 0; i < 256 && opErr == nil; i++ {
				opErr = cycle("/warm", true)
			}
			if opErr == nil {
				opErr = closeOpened(p, tgt, true, "/kept")
			}
			for opErr == nil {
				kick.Wait(p)
				if stop {
					return
				}
				if op == "create" {
					opErr = cycle("/f", true)
				} else {
					opErr = cycle("/kept", false)
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
		if n != 0 {
			t.Errorf("tiered %s/close: %v allocations, want 0", op, n)
		}
	}
}

// TestTieredMetaDispatches: a tiered create or open runs the same
// metadata call as a direct one, so a sequence of them, failures
// included, takes as many engine dispatches and as much simulated time
// through TieredBB as through DirectPFS, and as many as recorded before
// the tier handle embedded its PFS handle.
func TestTieredMetaDispatches(t *testing.T) {
	const wantDispatches = 36
	run := func(tiered bool) (uint64, des.Time, pfs.ClientStats) {
		e, fs := newCluster(5)
		c := fs.NewClient("cn0")
		var tgt Target = Direct(c)
		if tiered {
			tgt = NewTiered(c, nil)
		}
		e.Spawn("app", func(p *des.Proc) {
			for _, o := range []struct {
				create bool
				path   string
				ok     bool
			}{
				{true, "/f", true},
				{false, "/f", true},
				{true, "/f", false},        // ErrExist
				{false, "/missing", false}, // ErrNotExist
				{true, "/no/dir/f", false}, // ErrNotExist
				{false, "relative", false}, // invalid path
				{true, "/a/../g", true},    // cleaned to /g
				{false, "/", false},        // ErrIsDir
			} {
				if err := closeOpened(p, tgt, o.create, o.path); (err == nil) != o.ok {
					t.Errorf("tiered=%v: create=%v %s: error %v", tiered, o.create, o.path, err)
				}
			}
		})
		e.Run(des.MaxTime)
		return e.Dispatches(), e.Now(), c.Stats()
	}
	dd, dt, ds := run(false)
	td, tt, ts := run(true)
	if td != dd || tt != dt || ts != ds {
		t.Errorf("tiered: %d dispatches, end %v, stats %+v; direct: %d, %v, %+v", td, tt, ts, dd, dt, ds)
	}
	if td != wantDispatches {
		t.Errorf("tiered: %d dispatches, want %d", td, wantDispatches)
	}
}

// closeOpened creates or opens path through tgt and closes it.
func closeOpened(p *des.Proc, tgt Target, create bool, path string) error {
	var h Handle
	var err error
	if create {
		h, err = tgt.Create(p, path, 2, 1<<20)
	} else {
		h, err = tgt.Open(p, path)
	}
	if err != nil {
		return err
	}
	return h.Close(p)
}
