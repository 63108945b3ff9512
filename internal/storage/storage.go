// Package storage defines the pluggable storage-target seam between the
// POSIX layer and the backing store. A Target is the data-path surface
// extracted from pfs.Client — open/create/close, positional reads and
// writes, fsync, and the metadata operations — so everything above it
// (posixio, and transitively mpiio, hdf, iolang, the workload generators)
// programs against an interface instead of a concrete client. Three
// implementations ship: DirectPFS (every op straight to the parallel file
// system; behavior-identical to the pre-seam client path), TieredBB (a
// write-back I/O-node burst buffer in front of the PFS, the Figure-1
// tiering experiment), and NodeLocal (node-local scratch with no MDS
// round-trips). Provider mints per-compute-node Targets of one tier over
// a shared cluster, so harnesses select the backend with a single string.
// Stages (middleware implementing the Stage interface, e.g. the
// internal/reduce compressors) stack on top of any tier, turning the
// closed set of targets into a composable pipeline.
package storage

import (
	"pioeval/internal/des"
	"pioeval/internal/pfs"
)

// Tier names understood by NewProvider, the campaign `tier` axis, and the
// cmd/simfs -tier flag.
const (
	TierDirect    = "direct"
	TierBB        = "bb"
	TierNodeLocal = "nodelocal"
)

// FileInfo and Layout alias the PFS metadata types: the seam changes who
// services an operation, not what file metadata looks like.
type (
	FileInfo = pfs.FileInfo
	Layout   = pfs.Layout
)

// Namespace and handle errors re-exported at the seam, so the layers above
// Target classify failures with errors.Is without importing the PFS client
// package. Identity is preserved (these are the same error values), so
// targets backed by the PFS need no translation.
var (
	ErrExist        = pfs.ErrExist
	ErrNotExist     = pfs.ErrNotExist
	ErrIsDir        = pfs.ErrIsDir
	ErrNotDir       = pfs.ErrNotDir
	ErrNotEmpty     = pfs.ErrNotEmpty
	ErrClosedHandle = pfs.ErrClosedHandle
)

// DegradedReadError aliases the PFS degraded-read error so POSIX-level
// short-read accounting works against any target without a pfs import.
type DegradedReadError = pfs.DegradedReadError

// Handle is an open file on some storage target. The simulation carries
// no payload bytes, so reads and writes take only geometry; they block in
// simulated time for however long the target's media and transport cost.
type Handle interface {
	// Path returns the path the handle was opened with.
	Path() string
	// Write writes size bytes at offset off.
	Write(p *des.Proc, off, size int64) error
	// Read reads size bytes at offset off.
	Read(p *des.Proc, off, size int64) error
	// Fsync makes previously written data durable on the target's terms
	// (for a tiered target that means drained to the backing store).
	Fsync(p *des.Proc) error
	// Close releases the handle, flushing any buffered writes.
	Close(p *des.Proc) error
}

// Stage is middleware in the storage pipeline: it wraps the Target below
// it (a tier, or another stage) and returns a Target with the stage's
// transformation applied, so filters and tiers compose —
// compress(bb(direct)), compress(nodelocal). One Stage instance is shared
// by every node's wrapped target, which lets it aggregate whole-run
// accounting; Wrap is called once per node at Target-mint time.
type Stage interface {
	// Name identifies the stage for stats and error messages.
	Name() string
	// Wrap returns the stage's view over the target below for one node.
	Wrap(node string, t Target) Target
	// Flush completes any work the stage buffered (called by
	// Provider.Finalize outermost-first, before the tier below drains).
	Flush(p *des.Proc) error
}

// StageStats is the logical-vs-physical accounting a stage exposes: bytes
// the application asked for versus bytes forwarded to the layer below,
// plus the simulated CPU time the transformation charged. Conservation
// across a stage boundary is LogicalWritten ≈ PhysicalWritten × ratio.
type StageStats struct {
	// LogicalWritten / LogicalRead are application-visible bytes.
	LogicalWritten int64
	LogicalRead    int64
	// PhysicalWritten / PhysicalRead are bytes forwarded below the stage.
	PhysicalWritten int64
	PhysicalRead    int64
	// WriteOps / ReadOps count successful data operations through the stage.
	WriteOps int64
	ReadOps  int64
	// CompressSeconds / DecompressSeconds are simulated CPU time charged.
	CompressSeconds   float64
	DecompressSeconds float64
}

// Ratio is the achieved reduction factor on the write path
// (logical / physical), or 1 when nothing was written.
func (s StageStats) Ratio() float64 {
	if s.PhysicalWritten <= 0 {
		return 1
	}
	return float64(s.LogicalWritten) / float64(s.PhysicalWritten)
}

// StageAccounting is implemented by stages that track logical-vs-physical
// byte flow; the validate invariants type-assert against it to check
// conservation across each stage boundary without importing the stage's
// package.
type StageAccounting interface {
	StageStats() StageStats
}

// Target is the data-path surface extracted from pfs.Client: file
// open/create with stripe hints, stat and the namespace operations. One
// Target belongs to one simulated compute node.
type Target interface {
	// Create creates path with the given stripe hints (0 selects the
	// target's defaults) and returns an open handle.
	Create(p *des.Proc, path string, stripeCount int, stripeSize int64) (Handle, error)
	// Open opens an existing file.
	Open(p *des.Proc, path string) (Handle, error)
	// Stat returns file metadata.
	Stat(p *des.Proc, path string) (FileInfo, error)
	// Mkdir creates a directory.
	Mkdir(p *des.Proc, path string) error
	// Rmdir removes an empty directory.
	Rmdir(p *des.Proc, path string) error
	// Unlink removes a file.
	Unlink(p *des.Proc, path string) error
	// Readdir lists directory entries as full paths, ready for Stat, in
	// sorted order.
	Readdir(p *des.Proc, path string) ([]string, error)
}
