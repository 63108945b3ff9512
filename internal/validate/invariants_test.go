package validate

import (
	"strings"
	"testing"

	"pioeval/internal/campaign"
	"pioeval/internal/des"
	"pioeval/internal/mpi"
	"pioeval/internal/mpiio"
	"pioeval/internal/pfs"
	"pioeval/internal/posixio"
	"pioeval/internal/storage"
	"pioeval/internal/trace"
)

// TestInvariantsCleanRun runs a full mixed workload through the iolang
// interpreter with every checker armed and expects zero violations plus
// evidence that all hook points actually fired.
func TestInvariantsCleanRun(t *testing.T) {
	const src = `workload "clean" {
	ranks 4
	stripe count=2 size=65536
	write "/a" offset=rank*262144 size=262144 chunk=65536
	barrier
	read "/a" offset=rank*262144 size=131072
	fsync "/a"
	loop 3 {
		write "/b" offset=rank*65536+iter*262144 size=65536
	}
	stat "/a"
	close "/a"
}`
	res := RunSource(11, campaign.Point{Ranks: 4, Device: "ssd", StripeCount: 2, StripeSize: 65536}, src)
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	for _, v := range res.Violations {
		t.Errorf("unexpected violation: %s", v)
	}
	st := res.Stats
	if st.Dispatches == 0 || st.TraceRecords == 0 || st.ClientOps == 0 || st.OSTEvents == 0 {
		t.Fatalf("checker saw no evidence on some hook: %+v", st)
	}
}

// TestInvariantsCatchInjectedSkew proves the conservation checker catches
// an accounting bug, injected through the test-only skew hook.
func TestInvariantsCatchInjectedSkew(t *testing.T) {
	e := des.NewEngine(3)
	fs := pfs.New(e, pfs.DefaultConfig())
	inv := attach(e, fs, nil)
	inv.ostSkew = 4096 // the deliberate bug: OSTs "receive" 4 KiB extra
	c := fs.NewClient("cn0")
	e.Spawn("w", func(p *des.Proc) {
		h, err := c.Create(p, "/f", 0, 0)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := h.Write(p, 0, 1<<20); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := h.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	e.Run(des.MaxTime)
	vios := inv.Finish()
	if !hasInvariant(vios, "write-conservation") {
		t.Fatalf("injected 4096-byte skew not caught; violations: %v", vios)
	}
}

// TestInvariantsMPIIOLayerTallies runs a collective MPI-IO workload with
// the collector hooked up and checks the MPI-IO and POSIX byte tallies:
// both layers must be populated and ordered (hole-free extents make the
// volumes equal here).
func TestInvariantsMPIIOLayerTallies(t *testing.T) {
	const (
		ranks = 4
		slice = int64(64 << 10)
		n     = 8
	)
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	e := des.NewEngine(7)
	fs := pfs.New(e, cfg)
	col := trace.NewCollector()
	inv := attach(e, fs, col)
	w := mpi.NewWorld(e, ranks, mpi.DefaultOptions())
	envs := make([]*posixio.Env, ranks)
	for i := range envs {
		envs[i] = posixio.NewEnv(storage.Direct(fs.NewClient("cn"+string(rune('0'+i)))), i, col)
	}
	f := mpiio.NewFile(w, envs, "/coll", mpiio.Hints{CollNodes: 2}, col)
	w.Spawn(func(r *mpi.Rank) {
		if err := f.Open(r); err != nil {
			t.Errorf("open: %v", err)
			return
		}
		exts := make([]mpiio.Extent, n)
		for j := 0; j < n; j++ {
			exts[j] = mpiio.Extent{Off: int64(j)*ranks*slice + int64(r.ID())*slice, Size: slice}
		}
		if err := f.WriteExtentsAll(r, exts); err != nil {
			t.Errorf("collective write: %v", err)
		}
		if err := f.Close(r); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	e.Run(des.MaxTime)
	for _, v := range inv.Finish() {
		t.Errorf("unexpected violation: %s", v)
	}
	want := int64(ranks) * int64(n) * slice
	if inv.mpiioWrite != want {
		t.Errorf("MPI-IO write tally = %d, want %d", inv.mpiioWrite, want)
	}
	if inv.posixWrite != want {
		t.Errorf("POSIX write tally = %d, want %d (hole-free extents aggregate exactly)", inv.posixWrite, want)
	}
	if inv.clientWrite != want || inv.ostWrite != want {
		t.Errorf("client/OST tallies = %d/%d, want %d", inv.clientWrite, inv.ostWrite, want)
	}
}

// TestInvariantsFaultedRunNotArmed checks that injected faults disarm the
// strict equality checks (lost RPC bytes are legitimate) while the
// no-invented-bytes direction still holds.
func TestInvariantsFaultedRunNotArmed(t *testing.T) {
	cfg := pfs.DefaultConfig()
	cfg.Resilience = pfs.DefaultResilience()
	e := des.NewEngine(9)
	fs := pfs.New(e, cfg)
	inv := attach(e, fs, nil)
	fs.SetTransientErrorRate(0.5)
	c := fs.NewClient("cn0")
	e.Spawn("w", func(p *des.Proc) {
		h, err := c.Create(p, "/f", 0, 0)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		for off := int64(0); off < 4<<20; off += 1 << 20 {
			_ = h.Write(p, off, 1<<20) // failures are the point
		}
		_ = h.Close(p)
	})
	e.Run(des.MaxTime)
	for _, v := range inv.Finish() {
		t.Errorf("faulted run must not trip conservation: %s", v)
	}
}

// TestInvariantsRecordChecks feeds hand-built records through OnRecord to
// pin the per-record rules.
func TestInvariantsRecordChecks(t *testing.T) {
	inv := &Invariants{lastEnd: map[[2]int]des.Time{}}
	inv.OnRecord(trace.Record{Layer: trace.LayerPOSIX, Rank: 0, Op: "write", Size: 10, Start: 5, End: 9})
	if len(inv.Violations()) != 0 {
		t.Fatalf("valid record flagged: %v", inv.Violations())
	}
	inv.OnRecord(trace.Record{Layer: trace.LayerPOSIX, Rank: 0, Op: "write", Size: 10, Start: 10, End: 8})
	if !hasInvariant(inv.Violations(), "record-time") {
		t.Errorf("End < Start not flagged")
	}
	inv = &Invariants{lastEnd: map[[2]int]des.Time{}}
	inv.OnRecord(trace.Record{Layer: trace.LayerPOSIX, Rank: 1, Op: "read", Size: 4, Start: 0, End: 100})
	inv.OnRecord(trace.Record{Layer: trace.LayerPOSIX, Rank: 1, Op: "read", Size: 4, Start: 50, End: 120})
	if !hasInvariant(inv.Violations(), "record-causality") {
		t.Errorf("overlapping same-rank records not flagged")
	}
	// A different rank at the same times is fine.
	inv.OnRecord(trace.Record{Layer: trace.LayerPOSIX, Rank: 2, Op: "read", Size: 4, Start: 50, End: 120})
	if n := len(inv.Violations()); n != 1 {
		t.Errorf("cross-rank concurrency flagged: %v", inv.Violations())
	}
}

// TestInvariantsMonotonicityCheck drives onDispatch directly.
func TestInvariantsMonotonicityCheck(t *testing.T) {
	inv := &Invariants{lastEnd: map[[2]int]des.Time{}}
	inv.onDispatch(10, "a")
	inv.onDispatch(10, "b")
	inv.onDispatch(5, "c")
	if !hasInvariant(inv.Violations(), "time-monotonic") {
		t.Fatalf("clock regression not flagged")
	}
}

// TestInvariantsViolationCap checks the retention cap and the summary line.
func TestInvariantsViolationCap(t *testing.T) {
	e := des.NewEngine(1)
	fs := pfs.New(e, pfs.DefaultConfig())
	inv := attach(e, fs, nil)
	for i := 0; i < maxRetained+40; i++ {
		inv.violatef("record-time", "synthetic %d", i)
	}
	vios := inv.Finish()
	var summary bool
	for _, v := range vios {
		if v.Invariant == "checker" && strings.Contains(v.Detail, "dropped") {
			summary = true
		}
	}
	if len(vios) > maxRetained+2 {
		t.Errorf("retained %d violations, cap is %d", len(vios), maxRetained)
	}
	if !summary {
		t.Errorf("missing dropped-violations summary line: %v", vios)
	}
}

// TestInvariantsFinishIdempotent pins that Finish runs shutdown checks once.
func TestInvariantsFinishIdempotent(t *testing.T) {
	e := des.NewEngine(1)
	fs := pfs.New(e, pfs.DefaultConfig())
	inv := attach(e, fs, nil)
	inv.ostSkew = 1
	a := len(inv.Finish())
	b := len(inv.Finish())
	if a != b {
		t.Fatalf("Finish not idempotent: %d then %d violations", a, b)
	}
}

func hasInvariant(vios []Violation, name string) bool {
	for _, v := range vios {
		if v.Invariant == name {
			return true
		}
	}
	return false
}
