// Package pfs simulates a Lustre-like center-wide parallel file system: a
// metadata server (MDS), object storage servers (OSS) each hosting object
// storage targets (OST), RAID-0 file striping, and client read/write paths
// that traverse the compute fabric, the I/O-node tier, and the storage
// fabric — the topology of Figure 1 of the paper.
//
// The file system tracks no data payloads, only extents and timing: it is a
// performance model, not a data store. Namespace state (directories, file
// sizes, stripe layouts) is fully maintained so that metadata-intensive
// workloads (mdtest-like, workflows) exercise a real namespace.
package pfs

import (
	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/netsim"
)

// Config describes a file-system deployment.
type Config struct {
	// NumOSS is the number of object storage servers.
	NumOSS int
	// OSTsPerOSS is the number of storage targets attached to each OSS.
	OSTsPerOSS int
	// OSTDevice constructs the device model backing each OST.
	// Nil defaults to blockdev.DefaultHDD.
	OSTDevice func() blockdev.Model
	// OSTQueueDepth is the per-OST concurrent request depth.
	OSTQueueDepth int

	// MDSThreads is the MDS service concurrency.
	MDSThreads int
	// MDSOpCost is the CPU service time per metadata operation.
	MDSOpCost des.Time

	// DefaultStripeCount and DefaultStripeSize apply to files created
	// without an explicit layout.
	DefaultStripeCount int
	DefaultStripeSize  int64

	// Layout selects how OSTs are chosen for new files: classic
	// round-robin, or least-loaded (iez-style contention-aware
	// allocation using current per-OST byte counters).
	Layout LayoutPolicy

	// NumIONodes is the size of the I/O-forwarding tier between the
	// compute fabric and the storage fabric (Figure 1). Zero disables
	// forwarding: clients talk to servers directly on the compute fabric.
	NumIONodes int

	// ComputeFabric and StorageFabric configure the two networks. The
	// zero value selects the presets from the paper's Figure 1
	// (InfiniBand-like and 10GbE-like respectively).
	ComputeFabric netsim.Config
	StorageFabric netsim.Config

	// MaxRPCSize splits bulk transfers into RPC-sized chunks.
	MaxRPCSize int64

	// ClientReadahead enables client-side readahead: on a cache miss the
	// client fetches the requested bytes plus this many extra bytes, and
	// serves subsequent reads inside the prefetched window for free.
	// Sequential streams benefit; random access suffers amplification —
	// both behaviours are real. 0 disables.
	ClientReadahead int64

	// Resilience configures client-side fault handling (timeouts, retry
	// with backoff, degraded reads). The zero value fails fast with no
	// retries — see ResiliencePolicy and DefaultResilience.
	Resilience ResiliencePolicy
}

// DefaultConfig returns a small but representative deployment: 4 OSS x 2
// OST (HDD), 1 MDS with 8 threads, 1 MB stripes over 4 OSTs, 2 I/O nodes.
func DefaultConfig() Config {
	return Config{
		NumOSS:             4,
		OSTsPerOSS:         2,
		OSTQueueDepth:      4,
		MDSThreads:         8,
		MDSOpCost:          30 * des.Microsecond,
		DefaultStripeCount: 4,
		DefaultStripeSize:  1 << 20,
		NumIONodes:         2,
		ComputeFabric:      netsim.InfiniBandLike(),
		StorageFabric:      netsim.EthernetLike(),
		MaxRPCSize:         4 << 20,
	}
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.NumOSS <= 0 {
		c.NumOSS = 1
	}
	if c.OSTsPerOSS <= 0 {
		c.OSTsPerOSS = 1
	}
	if c.OSTDevice == nil {
		c.OSTDevice = func() blockdev.Model { return blockdev.DefaultHDD() }
	}
	if c.OSTQueueDepth <= 0 {
		c.OSTQueueDepth = 1
	}
	if c.MDSThreads <= 0 {
		c.MDSThreads = 1
	}
	if c.MDSOpCost <= 0 {
		c.MDSOpCost = 30 * des.Microsecond
	}
	if c.DefaultStripeCount <= 0 {
		c.DefaultStripeCount = 1
	}
	if c.DefaultStripeSize <= 0 {
		c.DefaultStripeSize = 1 << 20
	}
	if c.ComputeFabric.Name == "" {
		c.ComputeFabric = netsim.InfiniBandLike()
	}
	if c.StorageFabric.Name == "" {
		c.StorageFabric = netsim.EthernetLike()
	}
	if c.MaxRPCSize <= 0 {
		c.MaxRPCSize = 4 << 20
	}
	return c
}
