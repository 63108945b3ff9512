// Package replay implements trace replay and rank extrapolation in the
// style of ScalaIOTrace/ScalaIOExtrap: POSIX traces (or skeleton programs)
// are replayed against any simulated file-system deployment, either as fast
// as possible or preserving inter-operation compute time; and traces
// recorded at a small rank count are extrapolated to larger counts by
// fitting per-op affine offset patterns and rank-templated file names.
package replay

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pioeval/internal/des"
	"pioeval/internal/pfs"
	"pioeval/internal/posixio"
	"pioeval/internal/skeleton"
	"pioeval/internal/storage"
	"pioeval/internal/trace"
)

// Errors returned by extrapolation.
var (
	ErrNotSPMD      = errors.New("replay: ranks have differing op streams; cannot extrapolate")
	ErrNoRanks      = errors.New("replay: no ranks in trace")
	ErrNotUniformOp = errors.New("replay: op kinds differ across ranks at same index")
)

// FromTrace groups POSIX-layer records into per-rank concrete op streams
// with inter-op think times, ready for replay or extrapolation.
func FromTrace(recs []trace.Record) [][]skeleton.ConcreteOp {
	byRank := map[int][]trace.Record{}
	for _, r := range recs {
		if r.Layer == trace.LayerPOSIX {
			byRank[r.Rank] = append(byRank[r.Rank], r)
		}
	}
	ranks := make([]int, 0, len(byRank))
	for r := range byRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	out := make([][]skeleton.ConcreteOp, 0, len(ranks))
	for _, rank := range ranks {
		rs := byRank[rank]
		ops := make([]skeleton.ConcreteOp, 0, len(rs))
		var lastEnd des.Time
		for _, r := range rs {
			think := r.Start - lastEnd
			if think < 0 {
				think = 0
			}
			ops = append(ops, skeleton.ConcreteOp{
				Op: r.Op, Path: r.Path, Offset: r.Offset, Size: r.Size, Think: think,
			})
			lastEnd = r.End
		}
		out = append(out, ops)
	}
	return out
}

// Options controls replay behaviour.
type Options struct {
	// Timed preserves each op's recorded pre-op compute time; false
	// replays as fast as possible (I/O time only).
	Timed bool
	// StripeCount/StripeSize apply to files the replayer creates.
	StripeCount int
	StripeSize  int64
}

// Result summarizes a replay.
type Result struct {
	Makespan     des.Time
	PerRank      []des.Time
	BytesRead    int64
	BytesWritten int64
	Ops          int
}

// Bandwidth returns total bytes moved per second of makespan.
func (r Result) Bandwidth() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.BytesRead+r.BytesWritten) / r.Makespan.Seconds()
}

// Run replays per-rank op streams against fs, one simulated client per
// rank, and runs the engine to completion. The engine must be fresh or
// otherwise idle; Run drives it.
func Run(e *des.Engine, fs *pfs.FS, rankOps [][]skeleton.ConcreteOp, opts Options) (Result, error) {
	return RunTraced(e, fs, rankOps, opts, nil)
}

// RunTraced is Run with a trace collector attached to every replay client,
// so the replayed execution can itself be measured (the re-measurement leg
// of the evaluation cycle).
func RunTraced(e *des.Engine, fs *pfs.FS, rankOps [][]skeleton.ConcreteOp, opts Options, col *trace.Collector) (Result, error) {
	if len(rankOps) == 0 {
		return Result{}, ErrNoRanks
	}
	res := Result{PerRank: make([]des.Time, len(rankOps))}
	for rank, ops := range rankOps {
		rank, ops := rank, ops
		env := posixio.NewEnv(storage.Direct(fs.NewClient(fmt.Sprintf("replay%d", rank))), rank, col)
		env.StripeCount = opts.StripeCount
		env.StripeSize = opts.StripeSize
		e.Spawn(fmt.Sprintf("replay.rank%d", rank), func(p *des.Proc) {
			start := p.Now()
			fds := map[string]int{}
			fd := func(path string) int {
				if f, ok := fds[path]; ok {
					return f
				}
				f, err := env.Open(p, path, posixio.OCreate)
				if err != nil {
					f = -1
				}
				fds[path] = f
				return f
			}
			for _, op := range ops {
				if opts.Timed && op.Think > 0 {
					p.Wait(op.Think)
				}
				switch op.Op {
				case "open":
					fd(op.Path)
				case "close":
					if f, ok := fds[op.Path]; ok && f >= 0 {
						_ = env.Close(p, f)
						delete(fds, op.Path)
					}
				case "read":
					if f := fd(op.Path); f >= 0 {
						_, _ = env.Pread(p, f, op.Offset, op.Size)
						res.BytesRead += op.Size
					}
				case "write":
					if f := fd(op.Path); f >= 0 {
						_, _ = env.Pwrite(p, f, op.Offset, op.Size)
						res.BytesWritten += op.Size
					}
				case "fsync":
					if f, ok := fds[op.Path]; ok && f >= 0 {
						_ = env.Fsync(p, f)
					}
				case "stat":
					_, _ = env.Stat(p, op.Path)
				case "mkdir":
					_ = env.Mkdir(p, op.Path)
				case "unlink":
					_ = env.Unlink(p, op.Path)
				}
				res.Ops++
			}
			// Close leftover descriptors in open (fd) order: map
			// iteration order is random and would make same-seed
			// traces diverge.
			open := make([]int, 0, len(fds))
			for _, f := range fds {
				if f >= 0 {
					open = append(open, f)
				}
			}
			sort.Ints(open)
			for _, f := range open {
				_ = env.Close(p, f)
			}
			res.PerRank[rank] = p.Now() - start
		})
	}
	e.Run(des.MaxTime)
	if e.LiveProcs() != 0 {
		return res, fmt.Errorf("replay: deadlock with %d live procs", e.LiveProcs())
	}
	for _, d := range res.PerRank {
		if d > res.Makespan {
			res.Makespan = d
		}
	}
	return res, nil
}

// Extrapolate scales an SPMD per-rank op stream from len(rankOps) ranks to
// newRanks by fitting, at each op index, an affine offset pattern
// offset(r) = base + stride*r and a rank-templated path. It requires at
// least 2 source ranks with identical op streams (op kind, size).
func Extrapolate(rankOps [][]skeleton.ConcreteOp, newRanks int) ([][]skeleton.ConcreteOp, error) {
	p := len(rankOps)
	if p == 0 {
		return nil, ErrNoRanks
	}
	if p < 2 {
		return nil, ErrNotSPMD
	}
	nops := len(rankOps[0])
	for _, ops := range rankOps {
		if len(ops) != nops {
			return nil, ErrNotSPMD
		}
	}
	out := make([][]skeleton.ConcreteOp, newRanks)
	for r := range out {
		out[r] = make([]skeleton.ConcreteOp, nops)
	}
	for i := 0; i < nops; i++ {
		// Verify uniform op kind and size, affine offsets.
		kind, size := rankOps[0][i].Op, rankOps[0][i].Size
		think := rankOps[0][i].Think
		for r := 1; r < p; r++ {
			if rankOps[r][i].Op != kind {
				return nil, ErrNotUniformOp
			}
			if rankOps[r][i].Size != size {
				return nil, fmt.Errorf("replay: op %d size differs across ranks", i)
			}
		}
		base := rankOps[0][i].Offset
		stride := rankOps[1][i].Offset - base
		for r := 2; r < p; r++ {
			if rankOps[r][i].Offset != base+int64(r)*stride {
				return nil, fmt.Errorf("replay: op %d offsets not affine in rank", i)
			}
		}
		pathOf, err := pathTemplate(rankOps, i)
		if err != nil {
			return nil, err
		}
		for r := 0; r < newRanks; r++ {
			out[r][i] = skeleton.ConcreteOp{
				Op:     kind,
				Path:   pathOf(r),
				Offset: base + int64(r)*stride,
				Size:   size,
				Think:  think,
			}
		}
	}
	return out, nil
}

// pathTemplate returns a function mapping rank to path for op index i:
// either all ranks share one path, or paths embed the rank number between a
// common prefix and suffix (file-per-process).
func pathTemplate(rankOps [][]skeleton.ConcreteOp, i int) (func(int) string, error) {
	p0 := rankOps[0][i].Path
	shared := true
	for r := 1; r < len(rankOps); r++ {
		if rankOps[r][i].Path != p0 {
			shared = false
			break
		}
	}
	if shared {
		return func(int) string { return p0 }, nil
	}
	// File-per-process: find prefix/suffix such that path(r) = prefix +
	// itoa(r) + suffix for every source rank.
	r0 := strconv.Itoa(0)
	for idx := strings.Index(p0, r0); idx >= 0; idx = indexFrom(p0, r0, idx+1) {
		prefix, suffix := p0[:idx], p0[idx+len(r0):]
		ok := true
		for r := 1; r < len(rankOps); r++ {
			if rankOps[r][i].Path != prefix+strconv.Itoa(r)+suffix {
				ok = false
				break
			}
		}
		if ok {
			return func(r int) string { return prefix + strconv.Itoa(r) + suffix }, nil
		}
	}
	return nil, fmt.Errorf("replay: op %d paths not rank-templated (%q ...)", i, p0)
}

func indexFrom(s, sub string, from int) int {
	if from >= len(s) {
		return -1
	}
	i := strings.Index(s[from:], sub)
	if i < 0 {
		return -1
	}
	return from + i
}
