package storage

import (
	"fmt"

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
// every node gets its own private scratch device and namespace.
type Provider struct {
	eng  *des.Engine
	fs   *pfs.FS
	tier string
	cfg  ProviderConfig

	buffers map[string]*burstbuffer.Buffer // keyed by I/O node ("" = flat network)
	order   []*burstbuffer.Buffer          // creation order, for deterministic iteration
	locals  []*NodeLocal
	stages  []Stage // innermost first; the last pushed stage is closest to the app
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
	return &Provider{
		eng: e, fs: fs, tier: tier, cfg: cfg,
		buffers: map[string]*burstbuffer.Buffer{},
	}, nil
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
// in a deterministic order (rank order, in practice).
func (pr *Provider) Target(node string) Target {
	t := pr.tierTarget(node)
	for _, s := range pr.stages {
		t = s.Wrap(node, t)
	}
	return t
}

// tierTarget mints the bottom-of-stack tier target for one node.
func (pr *Provider) tierTarget(node string) Target {
	switch pr.tier {
	case TierBB:
		c := pr.fs.NewClient(node)
		return NewTiered(c, pr.bufferFor(c.IONode()))
	case TierNodeLocal:
		// Node-local scratch is an NVMe device at queue depth 8.
		nl := NewNodeLocal(pr.eng, node, blockdev.DefaultNVMe(), 8)
		pr.locals = append(pr.locals, nl)
		return nl
	default:
		return Direct(pr.fs.NewClient(node))
	}
}

// bufferFor returns (creating on first use) the burst buffer serving one
// I/O node.
func (pr *Provider) bufferFor(ionode string) *burstbuffer.Buffer {
	if bb, ok := pr.buffers[ionode]; ok {
		return bb
	}
	name := "bb0"
	if ionode != "" {
		name = "bb-" + ionode
	}
	bb := burstbuffer.New(pr.eng, pr.fs, name, pr.cfg.BB)
	pr.buffers[ionode] = bb
	pr.order = append(pr.order, bb)
	return bb
}

// Buffers returns every burst buffer minted so far, in creation order.
func (pr *Provider) Buffers() []*burstbuffer.Buffer { return pr.order }

// Locals returns every node-local scratch target minted so far, in
// creation order.
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
