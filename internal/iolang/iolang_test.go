package iolang

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/pfs"
	"pioeval/internal/replay"
	"pioeval/internal/trace"
)

const checkpointScript = `
# HACC-like checkpoint workload
workload "checkpoint" {
    ranks 4
    stripe count=4 size=1MB
    loop 3 {
        compute 10ms
        barrier
        write "/ckpt.${iter}" offset=rank*4MB size=4MB chunk=1MB
        barrier
    }
}
`

func ssdFS(e *des.Engine) *pfs.FS {
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	cfg.OSTDevice = func() blockdev.Model { return blockdev.DefaultSSD() }
	return pfs.New(e, cfg)
}

// readdir lists the paths in each of dirs on fs once a run has ended,
// with Readdir on a client and proc of its own.
func readdir(t *testing.T, e *des.Engine, fs *pfs.FS, dirs ...string) [][]string {
	t.Helper()
	c := fs.NewClient("lister")
	out := make([][]string, len(dirs))
	e.Spawn("lister", func(p *des.Proc) {
		for i, dir := range dirs {
			var err error
			if out[i], err = c.Readdir(p, dir); err != nil {
				t.Errorf("readdir %s: %v", dir, err)
			}
		}
	})
	e.Run(des.MaxTime)
	return out
}

func TestLexUnits(t *testing.T) {
	toks, err := lex("4MB 100ms 42 7KB 1s 3us 9ns 2GB 5B")
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{4 << 20, 100e6, 42, 7 << 10, 1e9, 3e3, 9, 2 << 30, 5}
	for i, w := range want {
		if toks[i].kind != tokNumber || toks[i].num != w {
			t.Errorf("token %d = %v, want %d", i, toks[i], w)
		}
	}
	if _, err := lex("5XB"); err == nil {
		t.Error("unknown unit should error")
	}
	if _, err := lex(`"unterminated`); err == nil {
		t.Error("unterminated string should error")
	}
	if _, err := lex("$"); err == nil {
		t.Error("stray char should error")
	}
}

func TestLexComments(t *testing.T) {
	toks, err := lex("ranks 4 # the rank count\nbarrier")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 4 { // ranks, 4, barrier, EOF
		t.Fatalf("tokens = %v", toks)
	}
	if toks[2].line != 2 {
		t.Errorf("line tracking: %d", toks[2].line)
	}
}

func TestParseCheckpoint(t *testing.T) {
	w, err := Parse(checkpointScript)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "checkpoint" || w.Ranks != 4 {
		t.Fatalf("header = %+v", w)
	}
	if w.StripeCount != 4 || w.StripeSize != 1<<20 {
		t.Fatalf("stripe = %d/%d", w.StripeCount, w.StripeSize)
	}
	if len(w.Body) != 1 || w.Body[0].Kind != "loop" || w.Body[0].Count != 3 {
		t.Fatalf("body = %+v", w.Body)
	}
	inner := w.Body[0].Body
	if len(inner) != 4 {
		t.Fatalf("loop body = %d stmts", len(inner))
	}
	wr := inner[2]
	if wr.Kind != "write" || wr.Path != "/ckpt.${iter}" {
		t.Fatalf("write stmt = %+v", wr)
	}
	if got := wr.Offset.Eval(3, 0); got != 3*4<<20 {
		t.Errorf("offset(rank=3) = %d", got)
	}
	if got := wr.Size.Eval(0, 0); got != 4<<20 {
		t.Errorf("size = %d", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`workload "x" { ranks 0 }`,
		`workload "x" { bogus }`,
		`workload "x" { write "/f" }`, // missing size
		`workload "x" { loop 2 { barrier }`,
		`workload "x" { stripe count=1 } extra`,
		`workload "x" { compute }`,
		`workload "x" { stripe bogus=1 }`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should error", src)
		}
	}
}

func TestExprPrecedence(t *testing.T) {
	w, err := Parse(`workload "x" { ranks 2 write "/f" offset=rank*2+1 size=1KB }`)
	if err != nil {
		t.Fatal(err)
	}
	// rank*2+1 with rank=1 → 3 (product binds tighter than sum).
	if got := w.Body[0].Offset.Eval(1, 0); got != 3 {
		t.Errorf("offset eval = %d, want 3", got)
	}
}

func TestSubstitute(t *testing.T) {
	if got := substitute("/a/${rank}/${iter}.dat", 3, 7); got != "/a/3/7.dat" {
		t.Errorf("substitute = %q", got)
	}
}

func TestInterpretCheckpoint(t *testing.T) {
	w, err := Parse(checkpointScript)
	if err != nil {
		t.Fatal(err)
	}
	e := des.NewEngine(61)
	fs := ssdFS(e)
	col := trace.NewCollector()
	rep, err := Run(e, fs, w, col)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(3 * 4 * 4 << 20)
	if rep.BytesWritten != want {
		t.Fatalf("bytes written = %d, want %d", rep.BytesWritten, want)
	}
	_, fsW := fs.TotalBytes()
	if fsW != want {
		t.Fatalf("FS bytes = %d", fsW)
	}
	// Compute phases make makespan at least 30ms.
	if rep.Makespan < 30*des.Millisecond {
		t.Errorf("makespan = %v", rep.Makespan)
	}
	// Trace captured the POSIX ops.
	if len(trace.ByLayer(col.Records(), trace.LayerPOSIX)) == 0 {
		t.Error("no trace records")
	}
	// Three per-iteration files exist.
	files := 0
	for _, path := range readdir(t, e, fs, "/")[0] {
		if strings.HasPrefix(path, "/ckpt.") {
			files++
		}
	}
	if files != 3 {
		t.Errorf("checkpoint files = %d", files)
	}
}

func TestInterpretMetadataScript(t *testing.T) {
	src := `
workload "meta" {
    ranks 2
    mkdir "/dir${rank}"
    loop 4 {
        open "/dir${rank}/f${iter}" create
        write "/dir${rank}/f${iter}" size=1KB
        close "/dir${rank}/f${iter}"
        stat "/dir${rank}/f${iter}"
        unlink "/dir${rank}/f${iter}"
    }
}
`
	w, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	e := des.NewEngine(62)
	fs := ssdFS(e)
	rep, err := Run(e, fs, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := fs.MDSStats()
	if st.Ops["create"] != 8 || st.Ops["unlink"] != 8 || st.Ops["mkdir"] != 2 {
		t.Errorf("MDS ops = %v", st.Ops)
	}
	if rep.BytesWritten != 8<<10 {
		t.Errorf("bytes = %d", rep.BytesWritten)
	}
}

func TestCompileMatchesInterpretation(t *testing.T) {
	w, err := Parse(checkpointScript)
	if err != nil {
		t.Fatal(err)
	}
	ops := Compile(w)
	if len(ops) != 4 {
		t.Fatalf("ranks = %d", len(ops))
	}
	// Each rank: 3 iterations x 4 chunks of 1MB = 12 writes.
	var writes int
	var bytes int64
	for _, op := range ops[0] {
		if op.Op == "write" {
			writes++
			bytes += op.Size
		}
	}
	if writes != 12 || bytes != 12<<20 {
		t.Fatalf("rank-0 writes = %d, bytes = %d", writes, bytes)
	}
	// Think time from compute statements lands on the next op.
	if ops[0][0].Think != 10*des.Millisecond {
		t.Errorf("first op think = %v", ops[0][0].Think)
	}
	// Compiled ops replay to the same byte volume.
	e := des.NewEngine(63)
	fs := ssdFS(e)
	res, err := replay.Run(e, fs, ops, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesWritten != 3*4*4<<20 {
		t.Fatalf("replayed bytes = %d", res.BytesWritten)
	}
}

// Property: Parse never panics on arbitrary input — it returns an error or
// a valid workload.
func TestPropParseNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Parse panicked on %q: %v", raw, r)
			}
		}()
		w, err := Parse(string(raw))
		return err != nil || w != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: for any parseable loop-free script built from fragments,
// Compile's total write bytes equal Run's.
func TestPropCompileRunByteAgreement(t *testing.T) {
	f := func(nRaw, szRaw uint8) bool {
		ranks := int(nRaw%4) + 1
		size := (int64(szRaw%16) + 1) * 64 << 10
		src := fmt.Sprintf(`workload "p" { ranks %d loop 2 { write "/f" offset=rank*4MB size=%d } }`, ranks, size)
		w, err := Parse(src)
		if err != nil {
			return false
		}
		var compiled int64
		for _, ops := range Compile(w) {
			for _, op := range ops {
				if op.Op == "write" {
					compiled += op.Size
				}
			}
		}
		e := des.NewEngine(64)
		rep, err := Run(e, ssdFS(e), w, nil)
		if err != nil {
			return false
		}
		return compiled == rep.BytesWritten
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestReaddirRmdirStatements(t *testing.T) {
	src := `
workload "dirs" {
    ranks 1
    mkdir "/d"
    open "/d/f" create
    close "/d/f"
    readdir "/d"
    unlink "/d/f"
    rmdir "/d"
}
`
	w, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	e := des.NewEngine(65)
	fs := ssdFS(e)
	if _, err := Run(e, fs, w, nil); err != nil {
		t.Fatal(err)
	}
	st := fs.MDSStats()
	if st.Ops["readdir"] != 1 || st.Ops["rmdir"] != 1 {
		t.Errorf("MDS ops = %v", st.Ops)
	}
	// Namespace clean afterwards.
	if paths := readdir(t, e, fs, "/")[0]; len(paths) != 0 {
		t.Errorf("root holds %v, want nothing", paths)
	}
	// Compile maps readdir to a stat op.
	ops := Compile(w)
	var stats int
	for _, op := range ops[0] {
		if op.Op == "stat" {
			stats++
		}
	}
	if stats != 1 {
		t.Errorf("compiled stats = %d", stats)
	}
}
