package iolang_test

import (
	"testing"

	"pioeval/internal/des"
	"pioeval/internal/iolang"
	"pioeval/internal/pfs"
	"pioeval/internal/stack"
	"pioeval/internal/validate"
)

// Fuzz execution bounds: whatever program the fuzzer finds, the
// interpreted run must stay small enough to finish in microseconds.
const (
	fuzzMaxRanks   = 3
	fuzzMaxLoop    = 3
	fuzzMaxDepth   = 3
	fuzzMaxStmts   = 64
	fuzzMaxSize    = int64(4 << 20)
	fuzzMinChunk   = int64(64 << 10) // floor, so a max-size write splits into at most 64 chunks
	fuzzMaxOffset  = int64(1 << 30)
	fuzzMaxCompute = int64(des.Second)
)

// clampExpr bounds a fuzzer-controlled expression at evaluation time,
// after rank/iter substitution — static inspection cannot bound products
// of rank and iter.
type clampExpr struct {
	e      iolang.Expr
	lo, hi int64
}

func (c clampExpr) Eval(rank, iter int) int64 {
	v := c.e.Eval(rank, iter)
	if v < c.lo {
		return c.lo
	}
	if v > c.hi {
		return c.hi
	}
	return v
}

// sanitize bounds a parsed workload in place so fuzzed programs cannot
// explode the simulation: rank count, loop counts and nesting, statement
// counts, and every I/O size/offset/duration are clamped.
func sanitize(w *iolang.Workload) {
	if w.Ranks > fuzzMaxRanks {
		w.Ranks = fuzzMaxRanks
	}
	if w.StripeCount > 8 {
		w.StripeCount = 8
	}
	if w.StripeSize < 0 || w.StripeSize > fuzzMaxSize {
		w.StripeSize = 1 << 20
	}
	w.Body = sanitizeBody(w.Body, 0)
}

func sanitizeBody(body []iolang.Stmt, depth int) []iolang.Stmt {
	if len(body) > fuzzMaxStmts {
		body = body[:fuzzMaxStmts]
	}
	for i := range body {
		s := &body[i]
		if s.Kind == "loop" {
			if s.Count > fuzzMaxLoop || depth >= fuzzMaxDepth {
				s.Count = 1
			}
			if s.Count < 0 {
				s.Count = 0
			}
			s.Body = sanitizeBody(s.Body, depth+1)
			continue
		}
		if s.Offset != nil {
			s.Offset = clampExpr{s.Offset, 0, fuzzMaxOffset}
		}
		if s.Size != nil {
			s.Size = clampExpr{s.Size, 0, fuzzMaxSize}
		}
		if s.Chunk != nil {
			s.Chunk = clampExpr{s.Chunk, fuzzMinChunk, fuzzMaxSize}
		}
		if s.Dur != nil {
			s.Dur = clampExpr{s.Dur, 0, fuzzMaxCompute}
		}
	}
	return body
}

// FuzzInterp fuzzes the whole front half of the simulator: lexer, parser,
// and interpreter against a live cluster with the full invariant checker
// armed. Any panic is a bug; any invariant violation on a run that
// completes without error is a bug. Runs that end in an error (including
// deadlocks from rank-divergent open failures the fuzzer discovers) only
// assert panic-freedom.
func FuzzInterp(f *testing.F) {
	for _, s := range []string{
		"workload \"w\" {\n\tranks 2\n\twrite \"/a\" offset=rank*65536 size=65536\n}\n",
		"workload \"w\" {\n\tranks 2\n\tstripe count=2 size=65536\n\tloop 2 {\n\t\twrite \"/a\" offset=iter*4096 size=4096 chunk=1024\n\t\tbarrier\n\t}\n\tread \"/a\" offset=0 size=8192\n}\n",
		"workload \"w\" {\n\tmkdir \"/d\"\n\twrite \"/d/f-${rank}\" size=4096\n\tstat \"/d/f-${rank}\"\n\tunlink \"/d/f-${rank}\"\n\trmdir \"/d\"\n}\n",
		"workload \"w\" {\n\tcompute 1000\n\topen \"/f\" create\n\tfsync \"/f\"\n\tclose \"/f\"\n}\n",
		"workload \"broken\" {",
		"workload \"w\" {\n\tranks 9999\n\twrite \"/a\" size=99999999999\n}\n",
		"workload \"comp\" {\n\tranks 2\n\twrite \"/c\" offset=rank*1048576 size=1048576 chunk=262144\n\tbarrier\n\tread \"/c\" offset=rank*1048576 size=1048576\n}\n",
		"workload \"comp2\" {\n\tloop 2 {\n\t\twrite \"/z\" offset=iter*65536 size=65536\n\t\tfsync \"/z\"\n\t}\n\tstat \"/z\"\n}\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		w, err := iolang.Parse(src)
		if err != nil {
			return
		}
		sanitize(w)
		run := func(compress string) {
			cfg := pfs.DefaultConfig()
			cfg.NumOSS, cfg.OSTsPerOSS = 2, 1
			cfg.NumIONodes = 0
			st, err := stack.New(stack.Config{Cluster: cfg, Seed: 1, Compress: compress})
			if err != nil {
				t.Fatal(err)
			}
			inv, col := validate.Arm(st.E, st.FS, st.Provider)
			_, rerr := iolang.RunOn(st.E, st.FS, w, col, st.Provider)
			vios := inv.Finish()
			if rerr != nil {
				return
			}
			for _, v := range vios {
				t.Errorf("invariant violation on clean run (compress=%q): %s\nprogram:\n%s", compress, v, src)
			}
		}
		// Every program runs twice: straight to the PFS through a direct
		// provider, and again through a compress stage with the
		// stage-conservation and stage-ratio checkers armed.
		run("")
		run("lz")
	})
}
