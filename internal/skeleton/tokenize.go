// Package skeleton implements I/O-skeleton extraction in the style of Skel
// and Hao et al.'s automatic benchmark generation: POSIX-layer traces are
// tokenized into abstract operations (gap-encoded offsets so that loop
// iterations look identical), compressed by hierarchical tandem-repeat
// folding into a compact loop program, and rendered back either as an
// executable program AST for the replayer or as Go benchmark source text.
// A suffix-array analysis (the suffix-tree role in Hao et al.) reports the
// longest repeated phrase that makes the folding profitable.
package skeleton

import (
	"fmt"

	"pioeval/internal/des"
	"pioeval/internal/trace"
)

// Token is one abstracted I/O operation: offsets are gap-encoded relative
// to the previous operation's end on the same file, so that the iterations
// of a regular loop produce identical tokens.
type Token struct {
	Op   string
	Path string
	Size int64
	// Gap is offset minus the previous op's end offset on the same path
	// (0 for perfectly consecutive access). The first op on a path
	// carries its absolute offset in Abs and Gap is unused.
	Gap   int64
	First bool  // first access to the path in this stream
	Abs   int64 // absolute offset, only meaningful when First
	// Think is the pre-op compute gap (time between the previous op's
	// end and this op's start), rounded to ThinkQuantum for foldability.
	Think des.Time
}

// ThinkQuantum is the rounding granularity for inter-op compute gaps.
const ThinkQuantum = 100 * des.Microsecond

// TokenizeQ converts records into tokens with the given think-time
// quantum. A quantum <= 0 discards compute gaps entirely, which maximizes
// loop foldability at the cost of timing fidelity (replay the result in
// as-fast-as-possible mode).
func TokenizeQ(recs []trace.Record, quantum des.Time) []Token {
	lastEnd := map[string]int64{}
	var lastT des.Time
	var out []Token
	for _, r := range recs {
		if r.Layer != trace.LayerPOSIX {
			continue
		}
		tok := Token{Op: r.Op, Path: r.Path, Size: r.Size}
		if r.Op == "read" || r.Op == "write" {
			// Offsets are only meaningful for data ops; metadata ops
			// must not carry offset state or loop folding breaks.
			if prev, ok := lastEnd[r.Path]; ok {
				tok.Gap = r.Offset - prev
			} else {
				tok.First = true
				tok.Abs = r.Offset
			}
			lastEnd[r.Path] = r.Offset + r.Size
		}
		if quantum > 0 {
			think := r.Start - lastT
			if think < 0 {
				think = 0
			}
			tok.Think = (think / quantum) * quantum
		}
		lastT = r.End
		out = append(out, tok)
	}
	return out
}

// Detokenize reconstructs concrete operations (with absolute offsets) from
// a token stream.
func Detokenize(toks []Token) []ConcreteOp {
	lastEnd := map[string]int64{}
	out := make([]ConcreteOp, 0, len(toks))
	for _, tok := range toks {
		op := ConcreteOp{Op: tok.Op, Path: tok.Path, Size: tok.Size, Think: tok.Think}
		if tok.First {
			op.Offset = tok.Abs
		} else {
			op.Offset = lastEnd[tok.Path] + tok.Gap
		}
		if tok.Op == "read" || tok.Op == "write" {
			lastEnd[tok.Path] = op.Offset + op.Size
		}
		out = append(out, op)
	}
	return out
}

// ConcreteOp is a fully resolved replayable operation.
type ConcreteOp struct {
	Op     string
	Path   string
	Offset int64
	Size   int64
	Think  des.Time
}

// String renders the op.
func (c ConcreteOp) String() string {
	return fmt.Sprintf("%s %s off=%d size=%d think=%v", c.Op, c.Path, c.Offset, c.Size, c.Think)
}
