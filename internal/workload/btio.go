package workload

import (
	"fmt"

	"pioeval/internal/des"
	"pioeval/internal/hdf"
	"pioeval/internal/mpi"
	"pioeval/internal/mpiio"
	"pioeval/internal/posixio"
)

// BTIOConfig models the NPB BT-IO pattern: a 3D cell array decomposed over
// ranks, written collectively through the high-level library every few
// timesteps — the classic nested-strided multi-dimensional HPC output the
// paper contrasts against emerging workloads.
type BTIOConfig struct {
	Ranks int
	// Dims is the global cell grid (decomposed over ranks along dim 0).
	Dims [3]int64
	// ElemSize is bytes per cell (BT-IO uses 5 doubles = 40).
	ElemSize int64
	Steps    int
	// Collective uses two-phase MPI-IO; otherwise each rank writes its
	// slab independently.
	Collective bool
	Path       string
}

func (c BTIOConfig) withDefaults() BTIOConfig {
	if c.Ranks <= 0 {
		c.Ranks = 4
	}
	if c.Dims == [3]int64{} {
		c.Dims = [3]int64{64, 64, 64}
	}
	if c.Dims[0] < int64(c.Ranks) {
		c.Dims[0] = int64(c.Ranks)
	}
	if c.ElemSize <= 0 {
		c.ElemSize = 40
	}
	if c.Steps <= 0 {
		c.Steps = 4
	}
	if c.Path == "" {
		c.Path = "/btio.h5"
	}
	return c
}

// BTIOReport summarizes a BT-IO run.
type BTIOReport struct {
	Config     BTIOConfig
	TotalBytes int64
	WriteMBps  float64
	Makespan   des.Time
	StepTime   []des.Time
}

// RunBTIO executes the BT-IO-like workload through the full HDF -> MPI-IO
// -> POSIX -> PFS stack.
func RunBTIO(h *Harness, cfg BTIOConfig) BTIOReport {
	cfg = cfg.withDefaults()
	rep := BTIOReport{Config: cfg, StepTime: make([]des.Time, cfg.Steps)}
	cells := cfg.Dims[0] * cfg.Dims[1] * cfg.Dims[2]
	rep.TotalBytes = cells * cfg.ElemSize * int64(cfg.Steps)

	mf := mpiio.NewFile(h.World, h.Envs, cfg.Path, mpiio.Hints{}, h.Col)
	hf := hdf.NewFile(mf, h.Col)

	// Block decomposition of dim 0 over ranks.
	slabOf := func(rank int) (start, count []int64) {
		per := cfg.Dims[0] / int64(cfg.Ranks)
		lo := int64(rank) * per
		n := per
		if rank == cfg.Ranks-1 {
			n = cfg.Dims[0] - lo
		}
		return []int64{lo, 0, 0}, []int64{n, cfg.Dims[1], cfg.Dims[2]}
	}

	stepStart := make([]des.Time, cfg.Steps)
	var ioTime des.Time
	end := h.Run(func(r *mpi.Rank, env *posixio.Env) {
		if err := hf.Create(r); err != nil {
			panic(fmt.Sprintf("btio: create: %v", err))
		}
		ds, err := hf.CreateDataset(r, "/cells", cfg.Dims[:], cfg.ElemSize)
		if err != nil {
			panic(fmt.Sprintf("btio: dataset: %v", err))
		}
		start, count := slabOf(r.ID())
		for step := 0; step < cfg.Steps; step++ {
			r.Barrier()
			if r.ID() == 0 {
				stepStart[step] = r.Now()
			}
			if cfg.Collective {
				err = ds.WriteSlabAll(r, start, count)
			} else {
				err = ds.WriteSlab(r, start, count)
			}
			if err != nil {
				panic(fmt.Sprintf("btio: write: %v", err))
			}
			r.Barrier()
			if r.ID() == 0 {
				rep.StepTime[step] = r.Now() - stepStart[step]
				ioTime += rep.StepTime[step]
			}
		}
		_ = hf.Close(r)
	})
	rep.Makespan = end
	rep.WriteMBps = bwMBps(rep.TotalBytes, ioTime)
	return rep
}
