package storage

import (
	"fmt"
	"slices"

	"pioeval/internal/blockdev"
	"pioeval/internal/burstbuffer"
	"pioeval/internal/des"
	"pioeval/internal/pfs"
)

// ProviderConfig tunes the burst-buffer tier. The zero value selects
// defaults everywhere.
type ProviderConfig struct {
	// BB configures the burst buffer behind every TierBB target. The zero
	// value selects NVMe staging, 4 GiB and one drain worker; ask for more
	// explicitly, e.g. burstbuffer.Config{DrainWorkers: 2}.
	BB burstbuffer.Config
}

// Provider mints per-compute-node Targets of one tier over a shared
// cluster. For TierBB the provider shares one burst buffer among all
// clients routed through the same I/O node (one shared buffer in
// flat-network mode), matching the Figure-1 placement; for TierNodeLocal
// every node gets its own private scratch device and namespace. Reset
// readies it for the next job on its reset engine and file system,
// keeping everything it built.
type Provider struct {
	eng  *des.Engine
	fs   *pfs.FS
	tier string
	cfg  ProviderConfig

	buffers map[string]*burstbuffer.Buffer // every buffer made, keyed by I/O node ("" = flat network)
	order   []*burstbuffer.Buffer          // the job's buffers in the order it first used them
	locals  []*NodeLocal                   // the job's scratch targets, in mint order
	stages  []Stage                        // innermost first; the last pushed stage is closest to the app

	// minted holds a target per Target call, in call order; the job has
	// taken the first n since the last Reset. It stays empty on the
	// direct tier without stages, whose targets cost nothing to mint.
	minted []mintedTarget
	n      int
}

// mintedTarget is a target Target minted for node: the tier target at the
// bottom, and top, the tier wrapped by every stage.
type mintedTarget struct {
	node      string
	tier, top Target
}

// NewProvider builds a provider for the given tier name ("" means
// TierDirect). Unknown tiers are rejected.
func NewProvider(e *des.Engine, fs *pfs.FS, tier string, cfg ProviderConfig) (*Provider, error) {
	if tier == "" {
		tier = TierDirect
	}
	switch tier {
	case TierDirect, TierBB, TierNodeLocal:
	default:
		return nil, fmt.Errorf("storage: unknown tier %q (want %s, %s, or %s)",
			tier, TierDirect, TierBB, TierNodeLocal)
	}
	return &Provider{eng: e, fs: fs, tier: tier, cfg: cfg}, nil
}

// Reset readies pr for a job on its engine and file system once both have
// been reset (des.Engine.Reset, pfs.FS.Reset), rebuilding nothing: pr
// keeps its stages, its burst buffers and the targets it has minted. The
// job's Target calls re-take them in place: the call at each position
// for the node minted at that position before gets that target, its
// tier target taking the node's client again (pfs.FS.NewClient), a
// scratch target emptied, and a burst buffer reset
// (burstbuffer.Buffer.Reset) by the first target that uses it again, so
// clients are registered and drain workers started in the order a new
// provider registers and starts them. Until then Buffers and Locals list
// none. Handles opened before the reset are stale. Reset the stages
// (reduce.Stage.Reset) with pr.
func (pr *Provider) Reset() {
	pr.order, pr.locals, pr.n = pr.order[:0], pr.locals[:0], 0
}

// Tier returns the provider's tier name (always one of the Tier constants).
func (pr *Provider) Tier() string { return pr.tier }

// Push stacks a stage on top of the pipeline: the most recently pushed
// stage sits closest to the application, wrapping everything pushed
// before it and the tier at the bottom. Push must happen before the
// first Target call so every node sees the same stack.
func (pr *Provider) Push(s Stage) { pr.stages = append(pr.stages, s) }

// Stages returns the stage stack, innermost (closest to the tier) first.
func (pr *Provider) Stages() []Stage { return pr.stages }

// Target mints the storage target for one compute node: the tier target
// at the bottom, wrapped by each pushed stage in order. Clients are
// registered with the cluster in call order, so callers must mint targets
// in a deterministic order (rank order, in practice). After a Reset it
// returns the target minted before for node at the same position, re-taken
// in place (see Reset).
func (pr *Provider) Target(node string) Target {
	if pr.tier == TierDirect && len(pr.stages) == 0 {
		return Direct(pr.fs.NewClient(node))
	}
	var kept mintedTarget
	if pr.n < len(pr.minted) && pr.minted[pr.n].node == node {
		kept = pr.minted[pr.n]
	}
	t := pr.tierTarget(node, kept.tier)
	if t != kept.tier {
		kept = mintedTarget{node: node, tier: t, top: t}
		for _, s := range pr.stages {
			kept.top = s.Wrap(node, kept.top)
		}
		if pr.n < len(pr.minted) {
			pr.minted[pr.n] = kept
		} else {
			pr.minted = append(pr.minted, kept)
		}
	}
	pr.n++
	return kept.top
}

// tierTarget returns the bottom-of-stack tier target for one node: old,
// re-taken in place, when it is one (the node's target before the last
// Reset), else a new one.
func (pr *Provider) tierTarget(node string, old Target) Target {
	switch pr.tier {
	case TierBB:
		c := pr.fs.NewClient(node)
		bb := pr.bufferFor(c.IONode())
		if t, ok := old.(*TieredBB); ok {
			t.reset(c, bb)
			return t
		}
		return NewTiered(c, bb)
	case TierNodeLocal:
		nl, ok := old.(*NodeLocal)
		if ok {
			nl.reset()
		} else {
			// Node-local scratch is an NVMe device at queue depth 8.
			nl = NewNodeLocal(pr.eng, node, blockdev.DefaultNVMe(), 8)
		}
		pr.locals = append(pr.locals, nl)
		return nl
	default:
		// A reset file system hands the node its retired client back, so
		// this is old again whenever old is the node's.
		return Direct(pr.fs.NewClient(node))
	}
}

// bufferFor returns the burst buffer serving one I/O node: the one
// serving it in this job, else the one that served it before the last
// Reset, reset, else a new one.
func (pr *Provider) bufferFor(ionode string) *burstbuffer.Buffer {
	bb, ok := pr.buffers[ionode]
	switch {
	case !ok:
		name := "bb0"
		if ionode != "" {
			name = "bb-" + ionode
		}
		bb = burstbuffer.New(pr.eng, pr.fs, name, pr.cfg.BB)
		if pr.buffers == nil {
			pr.buffers = map[string]*burstbuffer.Buffer{}
		}
		pr.buffers[ionode] = bb
	case slices.Contains(pr.order, bb):
		return bb
	default:
		bb.Reset()
	}
	pr.order = append(pr.order, bb)
	return bb
}

// Buffers returns the burst buffers of the job, in the order it first
// used them.
func (pr *Provider) Buffers() []*burstbuffer.Buffer { return pr.order }

// Locals returns the node-local scratch targets of the job, in mint
// order.
func (pr *Provider) Locals() []*NodeLocal { return pr.locals }

// NeedsFinalize reports whether the provider owns end-of-run work: stage
// flushes, or background drain workers that must be stopped from a
// simulated process before the engine drains — otherwise they count as
// live procs (a reported deadlock).
func (pr *Provider) NeedsFinalize() bool {
	return len(pr.stages) > 0 || (pr.tier == TierBB && len(pr.order) > 0)
}

// Finalize completes the pipeline top-down: stages flush outermost first
// (each stage's flush may emit writes into the layer below, which must
// still be live), then every burst buffer drains and its workers stop.
// The first error encountered is returned, but the whole stack is still
// flushed, drained, and shut down on error — a failed stage flush must
// not leave drain workers running.
func (pr *Provider) Finalize(p *des.Proc) error {
	var first error
	for i := len(pr.stages) - 1; i >= 0; i-- {
		if err := pr.stages[i].Flush(p); err != nil && first == nil {
			first = fmt.Errorf("storage: stage %s flush: %w", pr.stages[i].Name(), err)
		}
	}
	for _, bb := range pr.order {
		if err := bb.WaitDrained(p); err != nil && first == nil {
			first = err
		}
	}
	for _, bb := range pr.order {
		bb.Shutdown()
	}
	return first
}
