package skeleton

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"pioeval/internal/des"
	"pioeval/internal/trace"
)

// checkpointTrace builds a POSIX trace of a classic checkpoint loop:
// open, (write x writesPerOpen), close — repeated rounds times.
func checkpointTrace(rounds, writesPerOpen int, blk int64) []trace.Record {
	var recs []trace.Record
	var t des.Time
	var off int64
	for r := 0; r < rounds; r++ {
		recs = append(recs, trace.Record{Layer: trace.LayerPOSIX, Op: "open", Path: "/ckpt", Start: t, End: t + 10})
		t += 10
		for w := 0; w < writesPerOpen; w++ {
			recs = append(recs, trace.Record{
				Layer: trace.LayerPOSIX, Op: "write", Path: "/ckpt",
				Offset: off, Size: blk, Start: t, End: t + 100,
			})
			off += blk
			t += 100
		}
		recs = append(recs, trace.Record{Layer: trace.LayerPOSIX, Op: "close", Path: "/ckpt", Start: t, End: t + 10})
		t += 10
	}
	return recs
}

func TestTokenizeGapEncoding(t *testing.T) {
	recs := []trace.Record{
		{Layer: trace.LayerPOSIX, Op: "write", Path: "/f", Offset: 1000, Size: 100, Start: 0, End: 1},
		{Layer: trace.LayerPOSIX, Op: "write", Path: "/f", Offset: 1100, Size: 100, Start: 1, End: 2},
		{Layer: trace.LayerPOSIX, Op: "write", Path: "/f", Offset: 1300, Size: 100, Start: 2, End: 3},
	}
	toks := TokenizeQ(recs, ThinkQuantum)
	if !toks[0].First || toks[0].Abs != 1000 {
		t.Errorf("first token = %+v", toks[0])
	}
	if toks[1].First || toks[1].Gap != 0 {
		t.Errorf("consecutive token gap = %+v", toks[1])
	}
	if toks[2].Gap != 100 {
		t.Errorf("strided token gap = %d, want 100", toks[2].Gap)
	}
}

func TestTokenizeSkipsNonPosix(t *testing.T) {
	recs := []trace.Record{
		{Layer: trace.LayerMPIIO, Op: "mpi_file_write", Path: "/f", Size: 10},
		{Layer: trace.LayerPOSIX, Op: "write", Path: "/f", Size: 10},
	}
	if got := len(TokenizeQ(recs, ThinkQuantum)); got != 1 {
		t.Fatalf("tokens = %d, want 1", got)
	}
}

func TestDetokenizeRoundTrip(t *testing.T) {
	recs := checkpointTrace(3, 4, 4096)
	toks := TokenizeQ(recs, ThinkQuantum)
	ops := Detokenize(toks)
	j := 0
	for _, r := range recs {
		op := ops[j]
		if op.Op != r.Op || op.Path != r.Path {
			t.Fatalf("op %d = %+v vs rec %+v", j, op, r)
		}
		if (r.Op == "read" || r.Op == "write") && op.Offset != r.Offset {
			t.Fatalf("offset %d = %d, want %d", j, op.Offset, r.Offset)
		}
		j++
	}
}

func TestFoldCompressesCheckpointLoop(t *testing.T) {
	recs := checkpointTrace(32, 8, 1<<20)
	toks := TokenizeQ(recs, ThinkQuantum)
	prog := Fold(toks)
	if got := prog.CompressionRatio(); got < 10 {
		t.Errorf("compression ratio = %.1f, want >= 10 on a regular loop", got)
	}
	// Round trip must be exact.
	if !reflect.DeepEqual(prog.Expand(), toks) {
		t.Fatal("fold/expand mismatch")
	}
	// Offsets must reconstruct exactly.
	ops := prog.Ops()
	want := Detokenize(toks)
	if !reflect.DeepEqual(ops, want) {
		t.Fatal("op reconstruction mismatch")
	}
}

func TestFoldDetectsNestedLoops(t *testing.T) {
	// Pattern: (a b b) x4 — outer loop with inner repeat.
	mk := func(op string) Token { return Token{Op: op, Path: "/f"} }
	var toks []Token
	for i := 0; i < 4; i++ {
		toks = append(toks, mk("a"), mk("b"), mk("b"))
	}
	prog := Fold(toks)
	if len(prog.Nodes) != 1 || !prog.Nodes[0].IsLoop() || prog.Nodes[0].Count != 4 {
		t.Fatalf("outer structure = %+v", prog.Nodes)
	}
	body := prog.Nodes[0].Body
	// Body should be a + loop(2){b}.
	if len(body) != 2 || body[0].IsLoop() || !body[1].IsLoop() || body[1].Count != 2 {
		t.Fatalf("inner structure wrong: %+v", body)
	}
	if !reflect.DeepEqual(prog.Expand(), toks) {
		t.Fatal("nested expand mismatch")
	}
}

func TestFoldIrregularSequenceUnchanged(t *testing.T) {
	var toks []Token
	for i := 0; i < 10; i++ {
		toks = append(toks, Token{Op: "write", Path: "/f", Size: int64(i * 7)})
	}
	prog := Fold(toks)
	if prog.Size() != 10 {
		t.Errorf("irregular sequence folded to %d nodes", prog.Size())
	}
	if r := prog.CompressionRatio(); r != 1 {
		t.Errorf("ratio = %v", r)
	}
}

// Property: Fold round-trips arbitrary token streams.
func TestPropFoldRoundTrip(t *testing.T) {
	f := func(raw []uint8) bool {
		toks := make([]Token, len(raw))
		ops := []string{"read", "write", "open", "close"}
		for i, v := range raw {
			toks[i] = Token{Op: ops[v%4], Path: "/f", Size: int64(v % 3)}
		}
		got := Fold(toks).Expand()
		if len(toks) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, toks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSuffixArrayBasic(t *testing.T) {
	// "banana" as ints: b=1 a=0 n=2.
	seq := []int{1, 0, 2, 0, 2, 0}
	sa := SuffixArray(seq)
	want := []int{5, 3, 1, 0, 4, 2}
	if !reflect.DeepEqual(sa, want) {
		t.Fatalf("sa = %v, want %v", sa, want)
	}
	lcp := LCPArray(seq, sa)
	// lcp[1] = lcp(suffix5="a", suffix3="ana") = 1.
	if lcp[1] != 1 || lcp[2] != 3 {
		t.Errorf("lcp = %v", lcp)
	}
}

func TestLongestRepeat(t *testing.T) {
	seq := []int{7, 1, 2, 3, 9, 1, 2, 3, 8}
	start, length := LongestRepeat(seq)
	if length != 3 {
		t.Fatalf("repeat length = %d, want 3", length)
	}
	if !(seq[start] == 1 && seq[start+1] == 2 && seq[start+2] == 3) {
		t.Errorf("repeat start = %d", start)
	}
	if _, l := LongestRepeat([]int{1}); l != 0 {
		t.Error("singleton repeat")
	}
	if _, l := LongestRepeat(nil); l != 0 {
		t.Error("empty repeat")
	}
}

// Property: every suffix array is a permutation and sorted.
func TestPropSuffixArraySorted(t *testing.T) {
	less := func(seq []int, a, b int) bool {
		for a < len(seq) && b < len(seq) {
			if seq[a] != seq[b] {
				return seq[a] < seq[b]
			}
			a++
			b++
		}
		return a == len(seq) && b != len(seq)
	}
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		seq := make([]int, len(raw))
		for i, v := range raw {
			seq[i] = int(v % 4)
		}
		sa := SuffixArray(seq)
		seen := map[int]bool{}
		for _, s := range sa {
			if s < 0 || s >= len(seq) || seen[s] {
				return false
			}
			seen[s] = true
		}
		for i := 1; i < len(sa); i++ {
			if less(seq, sa[i], sa[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTokensToSymbols(t *testing.T) {
	toks := []Token{
		{Op: "a"}, {Op: "b"}, {Op: "a"},
	}
	syms := TokensToSymbols(toks)
	if syms[0] != syms[2] || syms[0] == syms[1] {
		t.Errorf("symbols = %v", syms)
	}
}

func TestRenderGo(t *testing.T) {
	recs := checkpointTrace(4, 2, 4096)
	prog := Fold(TokenizeQ(recs, ThinkQuantum))
	src := prog.RenderGo("replayCkpt")
	for _, want := range []string{"func replayCkpt", "for i0 :=", "env.Pwrite", "env.Open", "env.Close"} {
		if !strings.Contains(src, want) {
			t.Errorf("rendered source missing %q:\n%s", want, src)
		}
	}
}

func TestThinkTimeQuantization(t *testing.T) {
	recs := []trace.Record{
		{Layer: trace.LayerPOSIX, Op: "write", Path: "/f", Size: 10, Start: 0, End: 10},
		{Layer: trace.LayerPOSIX, Op: "write", Path: "/f", Offset: 10, Size: 10,
			Start: 10 + 150*des.Microsecond, End: 10 + 151*des.Microsecond},
	}
	toks := TokenizeQ(recs, ThinkQuantum)
	if toks[1].Think != 100*des.Microsecond {
		t.Errorf("think = %v, want 100us (quantized)", toks[1].Think)
	}
}
