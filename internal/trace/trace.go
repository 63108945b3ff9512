// Package trace implements multi-level I/O tracing in the style of
// Recorder: every layer of the simulated I/O stack (application, HDF,
// MPI-IO, POSIX, PFS) emits timestamped records into a Collector. Traces
// are the raw material for characterization (internal/profile), replay
// (internal/replay), skeleton generation (internal/skeleton), and modeling
// (internal/predict).
package trace

import (
	"fmt"

	"pioeval/internal/des"
)

// Layer identifies which level of the I/O stack produced a record.
type Layer uint8

// I/O stack layers, top to bottom (Figure 2 of the paper).
const (
	LayerApp Layer = iota
	LayerHDF
	LayerMPIIO
	LayerPOSIX
	LayerPFS
	numLayers
)

var layerNames = [...]string{"app", "hdf", "mpiio", "posix", "pfs"}

// String returns the layer name.
func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return fmt.Sprintf("layer(%d)", uint8(l))
}

// ParseLayer converts a layer name back to a Layer.
func ParseLayer(s string) (Layer, error) {
	for i, n := range layerNames {
		if n == s {
			return Layer(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown layer %q", s)
}

// Record is one traced I/O operation.
type Record struct {
	Rank   int
	Layer  Layer
	Op     string
	Path   string
	Offset int64
	Size   int64
	Start  des.Time
	End    des.Time
}

// Duration returns the record's elapsed simulated time.
func (r Record) Duration() des.Time { return r.End - r.Start }

// Collector accumulates records from one run. It is not safe for concurrent
// use; the DES engine is single-threaded by construction.
type Collector struct {
	recs    []Record
	dropped uint64
	limit   int // 0 = unlimited
	hook    func(Record)
}

// SetHook installs fn to observe every record as it is emitted (even when
// over the retention limit). Live profilers attach here. Pass nil to
// remove.
func (c *Collector) SetHook(fn func(Record)) { c.hook = fn }

// NewCollector returns a collector with no record limit.
func NewCollector() *Collector { return &Collector{} }

// SetLimit caps the number of retained records (0 = unlimited); further
// records are counted as dropped.
func (c *Collector) SetLimit(n int) { c.limit = n }

// Emit appends a record; a nil collector drops it.
func (c *Collector) Emit(r Record) {
	if c == nil {
		return
	}
	if c.hook != nil {
		c.hook(r)
	}
	if c.limit > 0 && len(c.recs) >= c.limit {
		c.dropped++
		return
	}
	c.recs = append(c.recs, r)
}

// Records returns the collected records in emission order.
func (c *Collector) Records() []Record { return c.recs }

// Len reports the number of collected records.
func (c *Collector) Len() int { return len(c.recs) }

// Dropped reports records lost to the limit.
func (c *Collector) Dropped() uint64 { return c.dropped }

// Reset clears the collector.
func (c *Collector) Reset() { c.recs = nil; c.dropped = 0 }

// Filter returns the records matching pred, preserving order.
func Filter(recs []Record, pred func(Record) bool) []Record {
	var out []Record
	for _, r := range recs {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// ByLayer returns only the records from layer l.
func ByLayer(recs []Record, l Layer) []Record {
	return Filter(recs, func(r Record) bool { return r.Layer == l })
}

// ByRank returns only the records from rank.
func ByRank(recs []Record, rank int) []Record {
	return Filter(recs, func(r Record) bool { return r.Rank == rank })
}

// Summary aggregates a record set.
type Summary struct {
	Records      int
	Ranks        int
	BytesRead    int64
	BytesWritten int64
	ReadOps      int
	WriteOps     int
	MetaOps      int
	Span         des.Time // last end - first start
	IOTime       des.Time // summed op durations
}

// Summarize computes aggregate statistics over recs.
func Summarize(recs []Record) Summary {
	var s Summary
	s.Records = len(recs)
	if len(recs) == 0 {
		return s
	}
	ranks := map[int]bool{}
	first, last := recs[0].Start, recs[0].End
	for _, r := range recs {
		ranks[r.Rank] = true
		if r.Start < first {
			first = r.Start
		}
		if r.End > last {
			last = r.End
		}
		s.IOTime += r.Duration()
		switch r.Op {
		case "read":
			s.ReadOps++
			s.BytesRead += r.Size
		case "write":
			s.WriteOps++
			s.BytesWritten += r.Size
		default:
			s.MetaOps++
		}
	}
	s.Ranks = len(ranks)
	s.Span = last - first
	return s
}
