package replay

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/pfs"
	"pioeval/internal/posixio"
	"pioeval/internal/skeleton"
	"pioeval/internal/storage"
	"pioeval/internal/trace"
)

func fastFS(e *des.Engine) *pfs.FS {
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	cfg.OSTDevice = func() blockdev.Model { return blockdev.DefaultSSD() }
	return pfs.New(e, cfg)
}

// recordRun runs an SPMD workload at `ranks` ranks and returns the POSIX
// trace plus the wall-clock makespan.
func recordRun(ranks int, perRankMB int64) ([]trace.Record, des.Time) {
	e := des.NewEngine(31)
	fs := fastFS(e)
	col := trace.NewCollector()
	for r := 0; r < ranks; r++ {
		r := r
		env := posixio.NewEnv(storage.Direct(fs.NewClient(fmt.Sprintf("orig%d", r))), r, col)
		e.Spawn("app", func(p *des.Proc) {
			fd, _ := env.Open(p, "/shared", posixio.OCreate)
			for i := int64(0); i < perRankMB; i++ {
				off := int64(r)*(perRankMB<<20) + i*(1<<20)
				_, _ = env.Pwrite(p, fd, off, 1<<20)
				p.Wait(des.Millisecond) // compute phase
			}
			_ = env.Close(p, fd)
		})
	}
	end := e.Run(des.MaxTime)
	return col.Records(), end
}

func TestFromTraceGroupsByRank(t *testing.T) {
	recs, _ := recordRun(4, 2)
	rankOps := FromTrace(recs)
	if len(rankOps) != 4 {
		t.Fatalf("ranks = %d", len(rankOps))
	}
	for r, ops := range rankOps {
		if len(ops) != 4 { // open + 2 writes + close
			t.Fatalf("rank %d ops = %d", r, len(ops))
		}
		if ops[0].Op != "open" || ops[len(ops)-1].Op != "close" {
			t.Fatalf("rank %d op shape: %v...%v", r, ops[0].Op, ops[len(ops)-1].Op)
		}
	}
}

func TestReplayMovesSameBytes(t *testing.T) {
	recs, _ := recordRun(4, 4)
	rankOps := FromTrace(recs)
	e := des.NewEngine(32)
	fs := fastFS(e)
	res, err := Run(e, fs, rankOps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(4 * 4 << 20)
	if res.BytesWritten != want {
		t.Fatalf("replayed bytes = %d, want %d", res.BytesWritten, want)
	}
	_, fsW := fs.TotalBytes()
	if fsW != want {
		t.Fatalf("FS bytes = %d, want %d", fsW, want)
	}
	if res.Bandwidth() <= 0 {
		t.Error("bandwidth should be positive")
	}
}

func TestTimedReplayApproximatesOriginal(t *testing.T) {
	recs, origEnd := recordRun(4, 4)
	rankOps := FromTrace(recs)

	eT := des.NewEngine(33)
	resT, err := Run(eT, fastFS(eT), rankOps, Options{Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	eF := des.NewEngine(34)
	resF, err := Run(eF, fastFS(eF), rankOps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Timed replay should be close to the original makespan (same
	// simulated cluster); AFAP replay must be faster (no compute).
	ratio := float64(resT.Makespan) / float64(origEnd)
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("timed replay %v vs original %v (ratio %.2f), want within 20%%", resT.Makespan, origEnd, ratio)
	}
	if resF.Makespan >= resT.Makespan {
		t.Errorf("AFAP (%v) should beat timed (%v)", resF.Makespan, resT.Makespan)
	}
}

func TestReplayEmptyErrors(t *testing.T) {
	e := des.NewEngine(1)
	if _, err := Run(e, fastFS(e), nil, Options{}); !errors.Is(err, ErrNoRanks) {
		t.Errorf("err = %v", err)
	}
}

func TestExtrapolateSharedFileBlockPattern(t *testing.T) {
	recs, _ := recordRun(4, 2)
	rankOps := FromTrace(recs)
	big, err := Extrapolate(rankOps, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(big) != 8 {
		t.Fatalf("extrapolated ranks = %d", len(big))
	}
	// Rank 6's first write should land at 6 * 2MB (the affine pattern).
	var firstWrite *skeleton.ConcreteOp
	for i := range big[6] {
		if big[6][i].Op == "write" {
			firstWrite = &big[6][i]
			break
		}
	}
	if firstWrite == nil || firstWrite.Offset != 6*(2<<20) {
		t.Fatalf("rank-6 first write = %+v, want offset %d", firstWrite, 6*(2<<20))
	}
	// Replaying the extrapolated trace moves 8 ranks' worth of bytes.
	e := des.NewEngine(35)
	fs := fastFS(e)
	res, err := Run(e, fs, big, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesWritten != 8*(2<<20) {
		t.Fatalf("extrapolated bytes = %d", res.BytesWritten)
	}
}

func TestExtrapolateFilePerProcess(t *testing.T) {
	mk := func(rank int) []skeleton.ConcreteOp {
		path := fmt.Sprintf("/out/rank%d.dat", rank)
		return []skeleton.ConcreteOp{
			{Op: "open", Path: path},
			{Op: "write", Path: path, Offset: 0, Size: 4096},
			{Op: "close", Path: path},
		}
	}
	src := [][]skeleton.ConcreteOp{mk(0), mk(1), mk(2)}
	big, err := Extrapolate(src, 6)
	if err != nil {
		t.Fatal(err)
	}
	if big[5][0].Path != "/out/rank5.dat" {
		t.Fatalf("rank-5 path = %q", big[5][0].Path)
	}
	if big[5][1].Offset != 0 || big[5][1].Size != 4096 {
		t.Fatalf("rank-5 write = %+v", big[5][1])
	}
}

func TestExtrapolateRejectsNonSPMD(t *testing.T) {
	a := []skeleton.ConcreteOp{{Op: "write", Path: "/f", Size: 10}}
	b := []skeleton.ConcreteOp{{Op: "write", Path: "/f", Size: 10}, {Op: "close", Path: "/f"}}
	if _, err := Extrapolate([][]skeleton.ConcreteOp{a, b}, 4); !errors.Is(err, ErrNotSPMD) {
		t.Errorf("uneven streams err = %v", err)
	}
	c := []skeleton.ConcreteOp{{Op: "read", Path: "/f", Size: 10}}
	if _, err := Extrapolate([][]skeleton.ConcreteOp{a, c}, 4); !errors.Is(err, ErrNotUniformOp) {
		t.Errorf("kind mismatch err = %v", err)
	}
	if _, err := Extrapolate(nil, 4); !errors.Is(err, ErrNoRanks) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := Extrapolate([][]skeleton.ConcreteOp{a}, 4); !errors.Is(err, ErrNotSPMD) {
		t.Errorf("single rank err = %v", err)
	}
}

func TestExtrapolateRejectsIrregularOffsets(t *testing.T) {
	mk := func(off int64) []skeleton.ConcreteOp {
		return []skeleton.ConcreteOp{{Op: "write", Path: "/f", Offset: off, Size: 10}}
	}
	// Offsets 0, 100, 999: not affine.
	_, err := Extrapolate([][]skeleton.ConcreteOp{mk(0), mk(100), mk(999)}, 6)
	if err == nil {
		t.Error("non-affine offsets should error")
	}
}

// The C7 experiment shape: extrapolated replay approximates a direct run at
// the target scale.
func TestExtrapolationValidatesAgainstDirectRun(t *testing.T) {
	recsSmall, _ := recordRun(4, 2)
	small := FromTrace(recsSmall)
	big, err := Extrapolate(small, 16)
	if err != nil {
		t.Fatal(err)
	}
	eX := des.NewEngine(36)
	resX, err := Run(eX, fastFS(eX), big, Options{Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	_, directEnd := recordRun(16, 2)
	ratio := float64(resX.Makespan) / float64(directEnd)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("extrapolated makespan %v vs direct %v (ratio %.2f), want within 2x", resX.Makespan, directEnd, ratio)
	}
}

// TestRunTracedClosesLeftoverDescriptorsInOrder: two ranks each leave
// eight files open, which the replayer closes at the end. Same-seed runs
// give identical trace-record sequences, so the closes cannot follow
// map iteration order.
func TestRunTracedClosesLeftoverDescriptorsInOrder(t *testing.T) {
	rankOps := make([][]skeleton.ConcreteOp, 2)
	for r := range rankOps {
		for f := 0; f < 8; f++ {
			rankOps[r] = append(rankOps[r], skeleton.ConcreteOp{
				Op: "write", Path: fmt.Sprintf("/r%d.f%d", r, f), Size: 64 << 10,
			})
		}
	}
	run := func() []trace.Record {
		e := des.NewEngine(7)
		col := trace.NewCollector()
		if _, err := RunTraced(e, fastFS(e), rankOps, Options{}, col); err != nil {
			t.Fatal(err)
		}
		return col.Records()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if again := run(); !reflect.DeepEqual(first, again) {
			t.Fatalf("same-seed replays traced differently at record %d", firstDiff(first, again))
		}
	}
}

// firstDiff returns the index of the first record where a and b differ.
func firstDiff(a, b []trace.Record) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
