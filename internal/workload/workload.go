// Package workload implements the synthetic and application workload
// generators the paper's taxonomy names: IOR-like parameterized bulk I/O,
// mdtest-like metadata stress, HACC-IO-like checkpoint phases, DLIO-like
// deep-learning training input pipelines, NPB BT-IO-like solution dumps,
// and data-intensive workflow DAGs. Every generator runs against the
// simulated file system and reports the metrics the corresponding real
// benchmark prints.
package workload

import (
	"fmt"

	"pioeval/internal/des"
	"pioeval/internal/mpi"
	"pioeval/internal/pfs"
	"pioeval/internal/posixio"
	"pioeval/internal/storage"
	"pioeval/internal/trace"
)

// Harness bundles the per-rank environments a generator needs.
type Harness struct {
	Eng   *des.Engine
	FS    *pfs.FS
	World *mpi.World
	Envs  []*posixio.Env
	Col   *trace.Collector

	// Provider is the storage provider the rank environments were minted
	// from (nil means every rank talks straight to the PFS).
	Provider *storage.Provider
	// FinalizeErr records the provider finalize (burst-buffer drain) error
	// from the last Run, nil when clean.
	FinalizeErr error
}

// NewHarness creates ranks clients named <prefix>N with a shared collector
// (col may be nil to disable tracing). Every rank talks straight to the
// PFS; use NewHarnessOn to route the ranks through a storage provider.
func NewHarness(e *des.Engine, fs *pfs.FS, ranks int, prefix string, col *trace.Collector) *Harness {
	return NewHarnessOn(e, fs, ranks, prefix, col, nil)
}

// NewHarnessOn is NewHarness with an explicit storage provider: each
// rank's environment is bound to pr.Target (burst-buffer tier, node-local
// scratch, ...). A nil provider means direct PFS access.
func NewHarnessOn(e *des.Engine, fs *pfs.FS, ranks int, prefix string, col *trace.Collector, pr *storage.Provider) *Harness {
	h := &Harness{
		Eng: e, FS: fs,
		World:    mpi.NewWorld(e, ranks, mpi.DefaultOptions()),
		Col:      col,
		Provider: pr,
	}
	for i := 0; i < ranks; i++ {
		node := fmt.Sprintf("%s%d", prefix, i)
		var t storage.Target
		if pr != nil {
			t = pr.Target(node)
		} else {
			t = storage.Direct(fs.NewClient(node))
		}
		h.Envs = append(h.Envs, posixio.NewEnv(t, i, col))
	}
	return h
}

// Run spawns fn per rank and drives the engine to completion, returning
// the makespan. When the harness's provider owns background drain workers
// (the burst-buffer tier), rank 0 finalizes them after a barrier — the
// drain tail lands inside the reported makespan, and any drain error is
// stored in FinalizeErr. It panics on simulated deadlock, which always
// indicates a generator bug.
func (h *Harness) Run(fn func(r *mpi.Rank, env *posixio.Env)) des.Time {
	h.World.Spawn(func(r *mpi.Rank) {
		fn(r, h.Envs[r.ID()])
		if h.Provider != nil && h.Provider.NeedsFinalize() {
			r.Barrier()
			if r.ID() == 0 {
				h.FinalizeErr = h.Provider.Finalize(r.Proc())
			}
		}
	})
	end := h.Eng.Run(des.MaxTime)
	if h.Eng.LiveProcs() != 0 {
		panic(fmt.Sprintf("workload: deadlock with %d live procs", h.Eng.LiveProcs()))
	}
	return end
}

// bwMBps converts bytes over a duration to MB/s.
func bwMBps(bytes int64, d des.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// opsPerSec converts an op count over a duration to ops/s.
func opsPerSec(n int, d des.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}
