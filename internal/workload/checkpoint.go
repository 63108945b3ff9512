package workload

import (
	"errors"
	"fmt"

	"pioeval/internal/burstbuffer"
	"pioeval/internal/des"
	"pioeval/internal/mpi"
	"pioeval/internal/posixio"
	"pioeval/internal/storage"
)

// CheckpointConfig models a HACC-IO-like bulk-synchronous checkpoint
// cycle: compute for a while, then every rank dumps its particle state.
type CheckpointConfig struct {
	Ranks        int
	BytesPerRank int64
	Steps        int
	ComputeTime  des.Time // per step, before the checkpoint
	TransferSize int64
	SharedFile   bool
	// ReuseFile overwrites the same checkpoint file every step (in-place
	// checkpointing) instead of writing a new file per step.
	ReuseFile bool
	Path      string
}

func (c CheckpointConfig) withDefaults() CheckpointConfig {
	if c.Ranks <= 0 {
		c.Ranks = 4
	}
	if c.BytesPerRank <= 0 {
		c.BytesPerRank = 16 << 20
	}
	if c.Steps <= 0 {
		c.Steps = 4
	}
	if c.TransferSize <= 0 {
		c.TransferSize = 4 << 20
	}
	if c.Path == "" {
		c.Path = "/ckpt"
	}
	return c
}

// CheckpointReport summarizes the run.
type CheckpointReport struct {
	Config CheckpointConfig
	// StepIOTime is the application-perceived checkpoint duration of each
	// step (max over ranks).
	StepIOTime []des.Time
	// EffectiveMBps is total checkpoint bytes / total perceived I/O time.
	EffectiveMBps float64
	TotalBytes    int64
	Makespan      des.Time
	// IOFraction is perceived I/O time / (I/O + compute) per rank, averaged.
	IOFraction float64
	// IOErrors counts failed checkpoint operations (open, write, fsync,
	// close) across all ranks and steps — nonzero under fault injection
	// when the resilience budget is exhausted.
	IOErrors uint64
	// StepIOErrors breaks IOErrors down per step, aligning failure bursts
	// with the StepIOTime series.
	StepIOErrors []uint64
}

// RunCheckpoint executes the checkpoint workload.
func RunCheckpoint(h *Harness, cfg CheckpointConfig) CheckpointReport {
	cfg = cfg.withDefaults()
	rep := CheckpointReport{
		Config:       cfg,
		StepIOTime:   make([]des.Time, cfg.Steps),
		StepIOErrors: make([]uint64, cfg.Steps),
	}
	rep.TotalBytes = cfg.BytesPerRank * int64(cfg.Ranks) * int64(cfg.Steps)
	stepStart := make([]des.Time, cfg.Steps)
	var ioTimeSum des.Time

	// On the burst-buffer tier an fsync means "wait for the full drain" —
	// checkpoint apps on a staging tier rely on the asynchronous drain for
	// durability instead of syncing every step, so skip the per-step fsync
	// and let the harness's finalize pay the drain tail once at the end.
	tieredBB := h.Provider != nil && h.Provider.Tier() == storage.TierBB

	end := h.Run(func(r *mpi.Rank, env *posixio.Env) {
		p := r.Proc()
		for step := 0; step < cfg.Steps; step++ {
			if cfg.ComputeTime > 0 {
				r.Compute(cfg.ComputeTime)
			}
			r.Barrier()
			if r.ID() == 0 {
				stepStart[step] = r.Now()
			}
			t0 := r.Now()
			path := cfg.Path
			if !cfg.ReuseFile {
				path = fmt.Sprintf("%s.step%d", cfg.Path, step)
			}
			if !cfg.SharedFile {
				path = fmt.Sprintf("%s.%d", path, r.ID())
			}
			base := int64(0)
			if cfg.SharedFile {
				base = int64(r.ID()) * cfg.BytesPerRank
			}
			fd, err := env.Open(p, path, posixio.OCreate)
			if err != nil {
				rep.StepIOErrors[step]++
			} else {
				for off := int64(0); off < cfg.BytesPerRank; off += cfg.TransferSize {
					n := cfg.TransferSize
					if off+n > cfg.BytesPerRank {
						n = cfg.BytesPerRank - off
					}
					if _, werr := env.Pwrite(p, fd, base+off, n); werr != nil {
						rep.StepIOErrors[step]++
					}
				}
				if !tieredBB {
					if err := env.Fsync(p, fd); err != nil {
						rep.StepIOErrors[step]++
					}
				}
				if err := env.Close(p, fd); err != nil {
					rep.StepIOErrors[step]++
				}
			}
			ioTimeSum += r.Now() - t0
			r.Barrier()
			if r.ID() == 0 {
				rep.StepIOTime[step] = r.Now() - stepStart[step]
			}
		}
	})
	rep.Makespan = end
	// Burst-buffer drain failures detected at finalize are checkpoint bytes
	// that never reached the PFS: charge them to the last step.
	if h.FinalizeErr != nil {
		var de *burstbuffer.DrainError
		if errors.As(h.FinalizeErr, &de) {
			rep.StepIOErrors[cfg.Steps-1] += de.Segments
		} else {
			rep.StepIOErrors[cfg.Steps-1]++
		}
	}
	for _, n := range rep.StepIOErrors {
		rep.IOErrors += n
	}
	var totalIO des.Time
	for _, d := range rep.StepIOTime {
		totalIO += d
	}
	rep.EffectiveMBps = bwMBps(rep.TotalBytes, totalIO)
	perRankTotal := des.Time(cfg.Steps) * cfg.ComputeTime * des.Time(cfg.Ranks)
	if denom := ioTimeSum + perRankTotal; denom > 0 {
		rep.IOFraction = float64(ioTimeSum) / float64(denom)
	}
	return rep
}
