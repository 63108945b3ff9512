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
	"slices"

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

	// names are the ranks' node names for prefix, kept from reset to
	// reset.
	names  NameBlock
	prefix string
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
	h := new(Harness)
	h.Reset(e, fs, ranks, prefix, col, pr)
	return h
}

// Reset makes h what NewHarnessOn(e, fs, ranks, prefix, col, pr) returns,
// keeping what h's last job built where it fits, so a job on a reset
// stack (stack.Stack.Reset) rebuilds no rank: the world is reset
// (mpi.World.Reset) when it is on e with ranks ranks, the node names are
// kept for the same prefix, and every kept environment is reset
// (posixio.Env.Reset) onto the target pr mints again, which a reset
// provider re-takes in place (storage.Provider.Reset). NewHarnessOn calls
// Reset too. Reset h only once its last Run has returned.
func (h *Harness) Reset(e *des.Engine, fs *pfs.FS, ranks int, prefix string, col *trace.Collector, pr *storage.Provider) {
	w := h.World
	if w != nil && w.Engine() == e && w.Size() == ranks {
		w.Reset()
	} else {
		w = mpi.NewWorld(e, ranks, mpi.DefaultOptions())
	}
	if prefix != h.prefix || len(h.names.end) < ranks {
		h.names = Names(prefix, 0, ranks)
	}
	if n := ranks - len(h.Envs); n > 0 {
		h.Envs = slices.Grow(h.Envs, n)
	}
	for i := range ranks {
		node := h.names.At(i)
		var t storage.Target
		if pr != nil {
			t = pr.Target(node)
		} else {
			t = storage.Direct(fs.NewClient(node))
		}
		if i < len(h.Envs) {
			h.Envs[i].Reset(t, i, col)
		} else {
			h.Envs = append(h.Envs, posixio.NewEnv(t, i, col))
		}
	}
	*h = Harness{Eng: e, FS: fs, World: w, Envs: h.Envs[:ranks], Col: col, Provider: pr, names: h.names, prefix: prefix}
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
