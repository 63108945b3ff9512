// Package core implements the paper's primary contribution as executable
// structure: the three-phase iterative I/O evaluation cycle of Figure 4
// (measurement & statistics collection → modeling & prediction →
// simulation, with a feedback loop), plus an IOWA-style workload
// abstraction in which interchangeable workload sources (traces, synthetic
// descriptions, characterization profiles) feed interchangeable consumers
// (replay, simulation).
package core

import (
	"errors"

	"pioeval/internal/des"
	"pioeval/internal/iolang"
	"pioeval/internal/pfs"
	"pioeval/internal/profile"
	"pioeval/internal/replay"
	"pioeval/internal/skeleton"
	"pioeval/internal/trace"
)

// ErrEmptySource indicates a workload source with no operations.
var ErrEmptySource = errors.New("core: workload source produced no operations")

// Source is the IOWA-like workload abstraction: anything that can produce
// per-rank concrete operation streams.
type Source interface {
	// Name identifies the source kind for reports.
	Name() string
	// Ops materializes the workload.
	Ops() ([][]skeleton.ConcreteOp, error)
}

// TraceSource derives a workload from recorded trace records (the
// replay-based path).
type TraceSource struct {
	Records []trace.Record
}

// Name implements Source.
func (s TraceSource) Name() string { return "trace" }

// Ops implements Source.
func (s TraceSource) Ops() ([][]skeleton.ConcreteOp, error) {
	ops := replay.FromTrace(s.Records)
	if len(ops) == 0 {
		return nil, ErrEmptySource
	}
	return ops, nil
}

// SyntheticSource derives a workload from an iolang script (the
// synthetic-description path, like the CODES I/O language).
type SyntheticSource struct {
	Workload *iolang.Workload
}

// Name implements Source.
func (s SyntheticSource) Name() string { return "synthetic" }

// Ops implements Source.
func (s SyntheticSource) Ops() ([][]skeleton.ConcreteOp, error) {
	if s.Workload == nil {
		return nil, ErrEmptySource
	}
	ops := iolang.Compile(s.Workload)
	if len(ops) == 0 {
		return nil, ErrEmptySource
	}
	return ops, nil
}

// ProfileSource synthesizes a representative workload from Darshan-like
// characterization counters — the technique Snyder et al. propose for
// generating workloads from profiles rather than full traces. The
// synthesized stream reproduces each file's op counts, access-size
// histogram, and sequential fraction, but not exact offsets or timing.
type ProfileSource struct {
	Files []*profile.FileCounters
	// Ranks splits the synthesized ops over this many ranks (default 1).
	Ranks int
}

// Name implements Source.
func (s ProfileSource) Name() string { return "profile" }

// bucketRepresentative returns a representative access size per histogram
// bucket (geometric-ish midpoint).
var bucketRepresentative = []int64{
	64, 512, 4 << 10, 32 << 10, 512 << 10, 2 << 20, 8 << 20, 32 << 20, 128 << 20,
}

// Ops implements Source.
func (s ProfileSource) Ops() ([][]skeleton.ConcreteOp, error) {
	if len(s.Files) == 0 {
		return nil, ErrEmptySource
	}
	ranks := s.Ranks
	if ranks <= 0 {
		ranks = 1
	}
	var all []skeleton.ConcreteOp
	for _, f := range s.Files {
		all = append(all, synthesizeFile(f)...)
	}
	if len(all) == 0 {
		return nil, ErrEmptySource
	}
	// Round-robin ops over ranks, preserving per-file order within a rank
	// as well as possible (ops for one file stay on one rank).
	out := make([][]skeleton.ConcreteOp, ranks)
	byFile := map[string]int{}
	nextRank := 0
	for _, op := range all {
		r, ok := byFile[op.Path]
		if !ok {
			r = nextRank % ranks
			byFile[op.Path] = r
			nextRank++
		}
		out[r] = append(out[r], op)
	}
	return out, nil
}

// synthesizeFile generates ops reproducing one file's counters.
func synthesizeFile(f *profile.FileCounters) []skeleton.ConcreteOp {
	var ops []skeleton.ConcreteOp
	ops = append(ops, skeleton.ConcreteOp{Op: "open", Path: f.Path})

	seqFrac := func(seq, total uint64) float64 {
		if total <= 1 {
			return 1
		}
		return float64(seq) / float64(total-1)
	}

	emit := func(kind string, hist [profile.NumBuckets]uint64, frac float64) {
		// Start past offset 0 so that backward jumps (to 0) register as
		// non-sequential in re-characterization.
		cursor := int64(1 << 20)
		var emitted uint64
		for b, count := range hist {
			size := bucketRepresentative[b]
			for k := uint64(0); k < count; k++ {
				off := cursor
				// The first frac fraction of ops continue sequentially;
				// the rest jump backward (offset below the previous end),
				// which Darshan-style counters classify as non-sequential.
				if frac < 1 && emitted > 0 {
					pos := float64(emitted)
					if pos/float64(max64(1, totalOps(hist)-1)) >= frac {
						off = 0
					}
				}
				ops = append(ops, skeleton.ConcreteOp{Op: kind, Path: f.Path, Offset: off, Size: size})
				cursor = off + size + 1 // +1 keeps even resumed runs non-consecutive after a jump
				emitted++
			}
		}
	}
	emit("write", f.WriteHist, seqFrac(f.SeqWrites, f.Writes))
	emit("read", f.ReadHist, seqFrac(f.SeqReads, f.Reads))
	for i := uint64(0); i < f.Fsyncs; i++ {
		ops = append(ops, skeleton.ConcreteOp{Op: "fsync", Path: f.Path})
	}
	ops = append(ops, skeleton.ConcreteOp{Op: "close", Path: f.Path})
	return ops
}

func totalOps(h [profile.NumBuckets]uint64) uint64 {
	var n uint64
	for _, v := range h {
		n += v
	}
	return n
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Consumer is the other half of the IOWA abstraction: anything that can
// execute a materialized workload against a file-system deployment.
type Consumer interface {
	Name() string
	Consume(e *des.Engine, fs *pfs.FS, ops [][]skeleton.ConcreteOp) (replay.Result, error)
}

// ReplayConsumer replays the ops directly (replay-tool path).
type ReplayConsumer struct {
	Options replay.Options
}

// Name implements Consumer.
func (c ReplayConsumer) Name() string { return "replay" }

// Consume implements Consumer.
func (c ReplayConsumer) Consume(e *des.Engine, fs *pfs.FS, ops [][]skeleton.ConcreteOp) (replay.Result, error) {
	return replay.Run(e, fs, ops, c.Options)
}

// SkeletonConsumer first compresses each rank's stream into a skeleton
// program, then replays the skeleton's expansion — validating that the
// compact benchmark reproduces the original I/O (the Skel/Hao et al.
// path). The compression ratio is reported through the pointer.
type SkeletonConsumer struct {
	Options replay.Options
	// MeanCompressionRatio, when non-nil, receives the mean per-rank
	// skeleton compression ratio.
	MeanCompressionRatio *float64
}

// Name implements Consumer.
func (c SkeletonConsumer) Name() string { return "skeleton" }

// Consume implements Consumer.
func (c SkeletonConsumer) Consume(e *des.Engine, fs *pfs.FS, ops [][]skeleton.ConcreteOp) (replay.Result, error) {
	folded := make([][]skeleton.ConcreteOp, len(ops))
	var ratioSum float64
	for r, rankOps := range ops {
		toks := opsToTokens(rankOps)
		prog := skeleton.Fold(toks)
		ratioSum += prog.CompressionRatio()
		folded[r] = prog.Ops()
	}
	if c.MeanCompressionRatio != nil && len(ops) > 0 {
		*c.MeanCompressionRatio = ratioSum / float64(len(ops))
	}
	return replay.Run(e, fs, folded, c.Options)
}

// opsToTokens converts concrete ops back into gap-encoded tokens so the
// folder can find loops.
func opsToTokens(ops []skeleton.ConcreteOp) []skeleton.Token {
	lastEnd := map[string]int64{}
	toks := make([]skeleton.Token, 0, len(ops))
	for _, op := range ops {
		tok := skeleton.Token{Op: op.Op, Path: op.Path, Size: op.Size, Think: op.Think}
		if op.Op == "read" || op.Op == "write" {
			if prev, ok := lastEnd[op.Path]; ok {
				tok.Gap = op.Offset - prev
			} else {
				tok.First = true
				tok.Abs = op.Offset
			}
			lastEnd[op.Path] = op.Offset + op.Size
		}
		toks = append(toks, tok)
	}
	return toks
}
