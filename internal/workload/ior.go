package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"pioeval/internal/des"
	"pioeval/internal/mpi"
	"pioeval/internal/mpiio"
	"pioeval/internal/posixio"
)

// Pattern selects the IOR access pattern.
type Pattern int

// IOR access patterns.
const (
	Sequential Pattern = iota
	Strided            // segment-interleaved across ranks
	Random
)

// String returns the pattern name.
func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case Strided:
		return "strided"
	case Random:
		return "random"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// IORConfig mirrors the core IOR parameter space.
type IORConfig struct {
	Ranks        int
	BlockSize    int64 // per-rank bytes per segment
	TransferSize int64 // bytes per I/O call
	Segments     int
	SharedFile   bool // -F inverse: one shared file vs file-per-process
	Pattern      Pattern
	ReadBack     bool // read phase after write phase
	Collective   bool // use two-phase collective MPI-IO (shared file only)
	StripeCount  int
	StripeSize   int64
	Path         string // base path (default /ior)
}

// withDefaults fills unset fields.
func (c IORConfig) withDefaults() IORConfig {
	if c.Ranks <= 0 {
		c.Ranks = 4
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 16 << 20
	}
	if c.TransferSize <= 0 {
		c.TransferSize = 1 << 20
	}
	if c.TransferSize > c.BlockSize {
		c.TransferSize = c.BlockSize
	}
	if c.Segments <= 0 {
		c.Segments = 1
	}
	if c.Path == "" {
		c.Path = "/ior"
	}
	return c
}

// IORReport is the generator's result, mirroring IOR's summary line.
type IORReport struct {
	Config     IORConfig
	WriteTime  des.Time
	ReadTime   des.Time
	WriteMBps  float64
	ReadMBps   float64
	TotalBytes int64
	Makespan   des.Time
}

// RunIOR executes the IOR-like workload on a fresh harness over fs.
func RunIOR(h *Harness, cfg IORConfig) IORReport {
	return RunIORWithHints(h, cfg, 0)
}

// RunIORWithHints is RunIOR with an explicit collective-buffering
// aggregator count (cb_nodes); 0 selects the MPI-IO default.
func RunIORWithHints(h *Harness, cfg IORConfig, cbNodes int) IORReport {
	cfg = cfg.withDefaults()
	rep := IORReport{Config: cfg}
	perRank := cfg.BlockSize * int64(cfg.Segments)
	rep.TotalBytes = perRank * int64(cfg.Ranks)

	var mf *mpiio.File
	if cfg.SharedFile && cfg.Collective {
		mf = mpiio.NewFile(h.World, h.Envs, cfg.Path, mpiio.Hints{CollNodes: cbNodes}, h.Col)
	}

	var wStart, wEnd, rStart, rEnd des.Time
	end := h.Run(func(r *mpi.Rank, env *posixio.Env) {
		env.StripeCount = cfg.StripeCount
		env.StripeSize = cfg.StripeSize
		// Only the random pattern draws offsets. A stream's seed depends
		// on the root seed and its name, not on which streams exist, so
		// creating this one only when it is used changes no draw.
		var rng *rand.Rand
		if cfg.Pattern == Random {
			rng = h.Eng.RNG().Stream("ior.rank" + strconv.Itoa(r.ID()))
		}

		// offsets computes this rank's I/O offsets for one phase.
		offsets := func(emit func(off int64)) {
			for seg := 0; seg < cfg.Segments; seg++ {
				var segBase int64
				if cfg.SharedFile {
					switch cfg.Pattern {
					case Strided:
						// Transfers interleave across ranks within the segment.
						segBase = int64(seg) * cfg.BlockSize * int64(cfg.Ranks)
						n := cfg.BlockSize / cfg.TransferSize
						for i := int64(0); i < n; i++ {
							emit(segBase + (i*int64(cfg.Ranks)+int64(r.ID()))*cfg.TransferSize)
						}
						continue
					default:
						segBase = (int64(seg)*int64(cfg.Ranks) + int64(r.ID())) * cfg.BlockSize
					}
				} else {
					segBase = int64(seg) * cfg.BlockSize
				}
				n := cfg.BlockSize / cfg.TransferSize
				for i := int64(0); i < n; i++ {
					off := segBase + i*cfg.TransferSize
					if cfg.Pattern == Random {
						off = segBase + rng.Int63n(cfg.BlockSize-cfg.TransferSize+1)
					}
					emit(off)
				}
			}
		}

		path := cfg.Path
		if !cfg.SharedFile {
			path = fmt.Sprintf("%s.%d", cfg.Path, r.ID())
		}

		// Write phase.
		r.Barrier()
		if r.ID() == 0 {
			wStart = r.Now()
		}
		if mf != nil {
			_ = mf.Open(r)
			mf.SetView(r, mpiio.View{ElemSize: cfg.TransferSize, BlockElems: 1})
			// Collective path writes the same volume via interleaved view.
			elems := perRank / cfg.TransferSize
			_ = mf.WriteViewAll(r, elems)
			_ = mf.Close(r)
		} else {
			fd, _ := env.Open(r.Proc(), path, posixio.OCreate)
			offsets(func(off int64) { _, _ = env.Pwrite(r.Proc(), fd, off, cfg.TransferSize) })
			_ = env.Fsync(r.Proc(), fd)
			_ = env.Close(r.Proc(), fd)
		}
		r.Barrier()
		if r.ID() == 0 {
			wEnd = r.Now()
		}

		// Read phase.
		if cfg.ReadBack {
			if r.ID() == 0 {
				rStart = r.Now()
			}
			if mf != nil {
				mf2 := mf // reuse same file object collectively
				_ = mf2.Open(r)
				elems := perRank / cfg.TransferSize
				_ = mf2.ReadViewAll(r, elems)
				_ = mf2.Close(r)
			} else {
				fd, _ := env.Open(r.Proc(), path, 0)
				offsets(func(off int64) { _, _ = env.Pread(r.Proc(), fd, off, cfg.TransferSize) })
				_ = env.Close(r.Proc(), fd)
			}
			r.Barrier()
			if r.ID() == 0 {
				rEnd = r.Now()
			}
		}
	})
	rep.Makespan = end
	rep.WriteTime = wEnd - wStart
	rep.WriteMBps = bwMBps(rep.TotalBytes, rep.WriteTime)
	if cfg.ReadBack {
		rep.ReadTime = rEnd - rStart
		rep.ReadMBps = bwMBps(rep.TotalBytes, rep.ReadTime)
	}
	return rep
}
