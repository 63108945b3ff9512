// Package reduce models application-side data reduction as a storage
// pipeline stage. Following Huebl et al.'s scalability analysis of data
// reduction in HPC ("On the Scalability of Data Reduction Techniques in
// Current and Upcoming HPC Systems"), a compressor is characterized by an
// achieved ratio and a per-rank throughput curve: compressing trades CPU
// seconds per logical byte for fewer physical bytes on the wire and the
// device below. Whether that trade pays depends on the tier underneath —
// the same compressor that hides an HDD's bandwidth wall is pure overhead
// in front of an NVMe array — which is exactly the crossover the campaign
// `compress` axis sweeps.
//
// Stage implements storage.Stage, so a compressor stacks over any tier:
// compress(bb(direct)), compress(nodelocal). Writes charge compression
// CPU time to the calling rank, then forward ceil(size/ratio) physical
// bytes below; reads fetch the shrunken extent and charge decompression
// time. Logical-vs-physical accounting is exposed through
// storage.StageAccounting for the validate conservation oracles.
package reduce

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"pioeval/internal/des"
	"pioeval/internal/storage"
)

// Model is one compressor's cost curve: the achieved reduction ratio and
// the per-rank throughputs that convert bytes into simulated CPU seconds.
type Model struct {
	// Name identifies the model ("lz", "deflate", "zfp", "sz").
	Name string
	// Lossy marks error-bounded (lossy) compressors; ErrorBound is the
	// configured point-wise bound (0 for lossless).
	Lossy      bool
	ErrorBound float64
	// Ratio is the modeled reduction factor: logical bytes / physical
	// bytes. Must be >= 1.
	Ratio float64
	// CompressMBps / DecompressMBps are per-rank throughputs over logical
	// bytes (MB = 1e6 bytes).
	CompressMBps   float64
	DecompressMBps float64
	// RampBytes is the per-call overhead expressed as extra bytes charged
	// at the throughput above — small transfers pay proportionally more,
	// matching the per-block setup cost real codecs exhibit.
	RampBytes int64
}

// presets are the shipped compressor models. Ratios and throughputs are
// in the range reported by Huebl et al. for lossless byte-oriented codecs
// (lz-family, deflate) and error-bounded lossy ones (zfp, sz) on
// scientific checkpoint data. The spread is deliberate: "lz" beats a
// shared HDD but loses to NVMe, while "deflate" is CPU-bound enough to
// lose even on HDD — both sides of the crossover are representable.
var presets = map[string]Model{
	"lz":      {Name: "lz", Ratio: 2.1, CompressMBps: 750, DecompressMBps: 1500, RampBytes: 4096},
	"deflate": {Name: "deflate", Ratio: 3.2, CompressMBps: 140, DecompressMBps: 500, RampBytes: 16384},
	"zfp":     {Name: "zfp", Lossy: true, ErrorBound: 1e-3, Ratio: 6, CompressMBps: 450, DecompressMBps: 900, RampBytes: 8192},
	"sz":      {Name: "sz", Lossy: true, ErrorBound: 1e-4, Ratio: 12, CompressMBps: 220, DecompressMBps: 550, RampBytes: 32768},
}

// Lookup returns the preset model for name.
func Lookup(name string) (Model, bool) {
	m, ok := presets[name]
	return m, ok
}

// Names lists the preset compressor names, sorted.
func Names() []string {
	out := make([]string, 0, len(presets))
	for n := range presets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New builds a stage from a preset name. Unknown names are rejected with
// the valid set in the message, mirroring storage.NewProvider's tier
// error.
func New(name string) (*Stage, error) {
	m, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("reduce: unknown compressor %q (want one of %v)", name, Names())
	}
	return NewStage(m), nil
}

// NewStage builds a stage from an explicit model (for tests and custom
// curves). Ratio and throughputs are clamped to sane minimums.
func NewStage(m Model) *Stage {
	if m.Ratio < 1 {
		m.Ratio = 1
	}
	if m.CompressMBps <= 0 {
		m.CompressMBps = 1
	}
	if m.DecompressMBps <= 0 {
		m.DecompressMBps = 1
	}
	if m.RampBytes < 0 {
		m.RampBytes = 0
	}
	return &Stage{m: m}
}

// Stage is one compressor instance shared by every node's wrapped target
// within a run; it aggregates whole-run logical/physical accounting.
// It implements storage.Stage and storage.StageAccounting.
type Stage struct {
	m Model
	// gen counts resets; a handle opened in an earlier generation is
	// stale.
	gen uint32

	mu sync.Mutex
	st storage.StageStats
}

// Reset zeroes s's accounting for the next job on a reset provider
// (storage.Provider.Reset), keeping the targets s wrapped and their
// closed handles for reuse. A handle opened before it is stale: every
// operation on it fails with storage.ErrStaleHandle and does nothing
// else.
func (s *Stage) Reset() {
	s.mu.Lock()
	s.st = storage.StageStats{}
	s.gen++
	s.mu.Unlock()
}

// Name returns the compressor name.
func (s *Stage) Name() string { return s.m.Name }

// Model returns the stage's cost curve.
func (s *Stage) Model() Model { return s.m }

// ModelRatio returns the configured reduction ratio; the validate
// invariants use it for the logical == physical x ratio oracle.
func (s *Stage) ModelRatio() float64 { return s.m.Ratio }

// Wrap returns the compressed view over the target below for one node.
func (s *Stage) Wrap(node string, t storage.Target) storage.Target {
	w := &target{s: s, inner: t}
	w.free.Init(maxFreeHandles)
	return w
}

// maxFreeHandles caps the closed handles a node's target keeps for
// reuse: a node's ranks rarely hold more files open at once.
const maxFreeHandles = 64

// Flush is a no-op: the stage compresses synchronously on the write path
// and buffers nothing.
func (s *Stage) Flush(p *des.Proc) error { return nil }

// StageStats returns the accumulated logical-vs-physical accounting.
func (s *Stage) StageStats() storage.StageStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// physOff maps a logical byte position to its physical position:
// ceil(x/ratio). The map is monotone, so disjoint logical extents stay
// disjoint and contiguous logical extents stay exactly contiguous —
// sequential writes above the stage remain sequential on the device
// below (no spurious seeks from rounding overlaps).
func (s *Stage) physOff(x int64) int64 {
	if x <= 0 {
		return 0
	}
	return int64(math.Ceil(float64(x) / s.m.Ratio))
}

// physExtent maps a logical [off, off+size) extent to the physical
// extent forwarded below. A non-empty transfer is never shrunk below one
// physical byte.
func (s *Stage) physExtent(off, size int64) (physOff, physSize int64) {
	if size <= 0 {
		return s.physOff(off), 0
	}
	lo, hi := s.physOff(off), s.physOff(off+size)
	n := hi - lo
	if n < 1 {
		n = 1
	}
	return lo, n
}

// cpuTime converts a logical byte count plus the per-call ramp into
// simulated seconds at the given throughput.
func cpuTime(size, ramp int64, mbps float64) des.Time {
	return des.FromSeconds(float64(size+ramp) / (mbps * 1e6))
}

// target is the per-node compressed view: namespace ops pass through
// untouched, data paths shrink, and Stat scales sizes back up so the
// layers above see logical geometry.
type target struct {
	s     *Stage
	inner storage.Target
	// free recycles the handles of closed files.
	free des.FreeList[handle, *handle]
}

func (t *target) Create(p *des.Proc, path string, stripeCount int, stripeSize int64) (storage.Handle, error) {
	in, err := t.inner.Create(p, path, stripeCount, stripeSize)
	if err != nil {
		return nil, err
	}
	return t.wrap(in), nil
}

func (t *target) Open(p *des.Proc, path string) (storage.Handle, error) {
	in, err := t.inner.Open(p, path)
	if err != nil {
		return nil, err
	}
	return t.wrap(in), nil
}

// wrap takes a handle from the free list for an inner handle that has
// been opened.
func (t *target) wrap(in storage.Handle) *handle {
	h := t.free.Get()
	h.t, h.inner, h.gen = t, in, t.s.gen
	return h
}

// Stat scales the physical size below back to logical bytes. The write
// path maps a logical end position to ceil(end/ratio), so
// physical*ratio >= logical always holds and size-threshold predicates
// above the stage (e.g. the io500 find phase) keep working.
func (t *target) Stat(p *des.Proc, path string) (storage.FileInfo, error) {
	st, err := t.inner.Stat(p, path)
	if err != nil {
		return st, err
	}
	st.Size = int64(float64(st.Size) * t.s.m.Ratio)
	return st, nil
}

func (t *target) Mkdir(p *des.Proc, path string) error  { return t.inner.Mkdir(p, path) }
func (t *target) Rmdir(p *des.Proc, path string) error  { return t.inner.Rmdir(p, path) }
func (t *target) Unlink(p *des.Proc, path string) error { return t.inner.Unlink(p, path) }
func (t *target) Readdir(p *des.Proc, path string) ([]string, error) {
	return t.inner.Readdir(p, path)
}

// handle compresses the data path of one open file: Write charges
// compression CPU to the calling rank, then forwards the shrunken extent;
// Read fetches the shrunken extent and charges decompression CPU.
// Metadata (Fsync, Close, Path) passes through. Close returns the handle
// to its target's free list, so in steady state an open allocates
// nothing. A closed handle has no inner handle: until an open reuses it,
// its I/O fails with storage.ErrClosedHandle and a second Close does
// nothing. A handle opened before its stage's last Reset is stale: every
// operation on it fails with storage.ErrStaleHandle before any simulated
// time passes.
type handle struct {
	des.Pooled
	t     *target
	inner storage.Handle
	gen   uint32 // the stage's generation at the open
}

func (h *handle) Path() string {
	if h.inner == nil {
		return ""
	}
	return h.inner.Path()
}

// check returns the error an operation on h fails with before it starts:
// storage.ErrClosedHandle once h is closed, storage.ErrStaleHandle once
// its stage has been reset.
func (h *handle) check() error {
	switch {
	case h.inner == nil:
		return storage.ErrClosedHandle
	case h.gen != h.t.s.gen:
		return storage.ErrStaleHandle
	}
	return nil
}

func (h *handle) Write(p *des.Proc, off, size int64) error {
	if err := h.check(); err != nil {
		return err
	}
	inner, s := h.inner, h.t.s
	ct := cpuTime(size, s.m.RampBytes, s.m.CompressMBps)
	p.Wait(ct)
	physOff, phys := s.physExtent(off, size)
	if err := inner.Write(p, physOff, phys); err != nil {
		return err
	}
	s.mu.Lock()
	s.st.LogicalWritten += size
	s.st.PhysicalWritten += phys
	s.st.WriteOps++
	s.st.CompressSeconds += ct.Seconds()
	s.mu.Unlock()
	return nil
}

func (h *handle) Read(p *des.Proc, off, size int64) error {
	if err := h.check(); err != nil {
		return err
	}
	s := h.t.s
	physOff, phys := s.physExtent(off, size)
	if err := h.inner.Read(p, physOff, phys); err != nil {
		return err
	}
	dt := cpuTime(size, s.m.RampBytes, s.m.DecompressMBps)
	p.Wait(dt)
	s.mu.Lock()
	s.st.LogicalRead += size
	s.st.PhysicalRead += phys
	s.st.ReadOps++
	s.st.DecompressSeconds += dt.Seconds()
	s.mu.Unlock()
	return nil
}

func (h *handle) Fsync(p *des.Proc) error {
	if err := h.check(); err != nil {
		return err
	}
	return h.inner.Fsync(p)
}

// Close closes the inner handle and releases h to its target's free list,
// once.
func (h *handle) Close(p *des.Proc) error {
	inner, t := h.inner, h.t
	if inner == nil {
		return nil
	}
	if h.gen != t.s.gen {
		return storage.ErrStaleHandle
	}
	h.inner = nil
	err := inner.Close(p)
	*h = handle{Pooled: h.Pooled}
	t.free.Put(h)
	return err
}
