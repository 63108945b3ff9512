package workload

import (
	"fmt"

	"pioeval/internal/des"
	"pioeval/internal/mpi"
	"pioeval/internal/posixio"
)

// DLConfig models a DLIO-like deep-learning training input pipeline: a
// dataset of samples packed into files, read in randomly shuffled
// mini-batches by parallel workers each epoch — the §V-B access pattern
// (highly random small reads) that stresses PFSs built for large
// sequential I/O.
type DLConfig struct {
	Workers        int
	Samples        int   // total dataset samples
	SampleSize     int64 // bytes per sample
	SamplesPerFile int
	BatchSize      int
	Epochs         int
	Shuffle        bool
	// ComputePerBatch models the training step after each batch is read.
	ComputePerBatch des.Time
	Path            string
}

func (c DLConfig) withDefaults() DLConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Samples <= 0 {
		c.Samples = 1024
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 128 << 10
	}
	if c.SamplesPerFile <= 0 {
		c.SamplesPerFile = 256
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
	if c.Path == "" {
		c.Path = "/dataset"
	}
	return c
}

// DLReport summarizes the training-I/O run.
type DLReport struct {
	Config        DLConfig
	GenTime       des.Time // dataset generation (write) time
	EpochTime     []des.Time
	SamplesPerSec float64 // steady-state read throughput in samples/s
	ReadMBps      float64
	TotalRead     int64
	Makespan      des.Time
}

// RunDL generates the dataset, then trains for the configured epochs.
func RunDL(h *Harness, cfg DLConfig) DLReport {
	cfg = cfg.withDefaults()
	rep := DLReport{Config: cfg, EpochTime: make([]des.Time, cfg.Epochs)}
	numFiles := (cfg.Samples + cfg.SamplesPerFile - 1) / cfg.SamplesPerFile
	fileOf := func(sample int) (string, int64) {
		f := sample / cfg.SamplesPerFile
		idx := sample % cfg.SamplesPerFile
		return fmt.Sprintf("%s/file%d", cfg.Path, f), int64(idx) * cfg.SampleSize
	}

	var genEnd des.Time
	epochStart := make([]des.Time, cfg.Epochs)
	end := h.Run(func(r *mpi.Rank, env *posixio.Env) {
		p := r.Proc()
		// Dataset generation: workers write disjoint files sequentially.
		if r.ID() == 0 {
			_ = env.Mkdir(p, cfg.Path)
		}
		r.Barrier()
		for f := r.ID(); f < numFiles; f += r.Size() {
			samples := cfg.SamplesPerFile
			if f == numFiles-1 {
				if rem := cfg.Samples % cfg.SamplesPerFile; rem != 0 {
					samples = rem
				}
			}
			fd, _ := env.Open(p, fmt.Sprintf("%s/file%d", cfg.Path, f), posixio.OCreate)
			_, _ = env.Pwrite(p, fd, 0, int64(samples)*cfg.SampleSize)
			_ = env.Close(p, fd)
		}
		r.Barrier()
		if r.ID() == 0 {
			genEnd = r.Now()
		}

		// Training epochs.
		rng := h.Eng.RNG().Stream("dl.shuffle")
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			if r.ID() == 0 {
				epochStart[epoch] = r.Now()
			}
			// Sample order: with shuffling, an epoch-global shuffled
			// order with workers striding through it (distributed
			// sampler). Without shuffling, each worker reads a
			// contiguous shard sequentially — how sharded loaders
			// behave when shuffling is off.
			order := make([]int, cfg.Samples)
			for i := range order {
				order[i] = i
			}
			var mine []int
			if cfg.Shuffle {
				rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
				for i := r.ID(); i < len(order); i += r.Size() {
					mine = append(mine, order[i])
				}
			} else {
				per := (cfg.Samples + r.Size() - 1) / r.Size()
				lo := r.ID() * per
				hi := lo + per
				if hi > cfg.Samples {
					hi = cfg.Samples
				}
				mine = order[lo:hi]
			}
			fds := map[string]int{}
			var opened []int
			batchCount := 0
			for _, sample := range mine {
				path, off := fileOf(sample)
				fd, ok := fds[path]
				if !ok {
					fd, _ = env.Open(p, path, 0)
					fds[path] = fd
					opened = append(opened, fd)
				}
				_, _ = env.Pread(p, fd, off, cfg.SampleSize)
				rep.TotalRead += cfg.SampleSize
				batchCount++
				if batchCount%cfg.BatchSize == 0 && cfg.ComputePerBatch > 0 {
					r.Compute(cfg.ComputePerBatch)
				}
			}
			// Close in open order, not map order, which is random
			// and would make same-seed traces diverge.
			for _, fd := range opened {
				_ = env.Close(p, fd)
			}
			r.Barrier()
			if r.ID() == 0 {
				rep.EpochTime[epoch] = r.Now() - epochStart[epoch]
			}
		}
	})
	rep.Makespan = end
	rep.GenTime = genEnd
	var trainTime des.Time
	for _, d := range rep.EpochTime {
		trainTime += d
	}
	if trainTime > 0 {
		rep.SamplesPerSec = float64(cfg.Samples*cfg.Epochs) / trainTime.Seconds()
		rep.ReadMBps = bwMBps(rep.TotalRead, trainTime)
	}
	return rep
}
