// Package profile implements Darshan-style I/O characterization: compact
// per-(rank,file) counters — operation counts, byte totals, access-size
// histograms, sequential/consecutive access detection. Profiles are the
// cheap, always-on complement to full tracing (internal/trace), whose
// records filtered by layer are the per-operation (DXT-style) view, and
// feed the workload-generation and modeling phases.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"pioeval/internal/des"
	"pioeval/internal/trace"
)

// Histogram bucket upper bounds (bytes); the last bucket is unbounded.
var bucketBounds = []int64{100, 1 << 10, 10 << 10, 100 << 10, 1 << 20, 4 << 20, 10 << 20, 100 << 20}

// NumBuckets is the number of access-size histogram buckets.
const NumBuckets = 9

// BucketLabel returns a human-readable label for bucket i.
func BucketLabel(i int) string {
	labels := []string{"0-100", "100-1K", "1K-10K", "10K-100K", "100K-1M", "1M-4M", "4M-10M", "10M-100M", "100M+"}
	if i >= 0 && i < len(labels) {
		return labels[i]
	}
	return "?"
}

// bucketOf maps a size to its histogram bucket.
func bucketOf(size int64) int {
	for i, b := range bucketBounds {
		if size <= b {
			return i
		}
	}
	return NumBuckets - 1
}

// FileCounters is the Darshan-like counter set for one (rank, file) pair.
type FileCounters struct {
	Rank int
	Path string

	Opens, Closes, Stats2, Fsyncs uint64
	Reads, Writes                 uint64
	BytesRead, BytesWritten       int64
	MaxReadSize, MaxWriteSize     int64

	// Access pattern counters: consecutive = offset equals previous end;
	// sequential = offset at or beyond previous end.
	ConsecReads, ConsecWrites uint64
	SeqReads, SeqWrites       uint64

	// ReadHist and WriteHist are access-size histograms.
	ReadHist  [NumBuckets]uint64
	WriteHist [NumBuckets]uint64

	// Timing.
	FirstOp   des.Time
	LastOp    des.Time
	ReadTime  des.Time
	WriteTime des.Time
	MetaTime  des.Time

	lastReadEnd  int64
	lastWriteEnd int64
	sawOp        bool
}

// Profiler accumulates counters from trace records. Attach it live with
// Attach, or feed it after a run with IngestAll.
type Profiler struct {
	// Layer selects which stack layer to characterize (default POSIX,
	// matching Darshan's primary instrumentation point).
	Layer trace.Layer

	counters map[ckey]*FileCounters
}

type ckey struct {
	rank int
	path string
}

// New returns a profiler characterizing the POSIX layer.
func New() *Profiler {
	return &Profiler{Layer: trace.LayerPOSIX, counters: make(map[ckey]*FileCounters)}
}

// Attach registers the profiler as the collector's live hook.
func (p *Profiler) Attach(col *trace.Collector) {
	col.SetHook(p.Ingest)
}

// Ingest processes one trace record.
func (p *Profiler) Ingest(r trace.Record) {
	if r.Layer != p.Layer {
		return
	}
	k := ckey{r.Rank, r.Path}
	c := p.counters[k]
	if c == nil {
		c = &FileCounters{Rank: r.Rank, Path: r.Path}
		p.counters[k] = c
	}
	if !c.sawOp || r.Start < c.FirstOp {
		c.FirstOp = r.Start
	}
	if r.End > c.LastOp {
		c.LastOp = r.End
	}
	c.sawOp = true
	switch r.Op {
	case "read":
		c.Reads++
		c.BytesRead += r.Size
		if r.Size > c.MaxReadSize {
			c.MaxReadSize = r.Size
		}
		c.ReadHist[bucketOf(r.Size)]++
		if r.Offset == c.lastReadEnd && c.Reads > 1 {
			c.ConsecReads++
		}
		if r.Offset >= c.lastReadEnd && c.Reads > 1 {
			c.SeqReads++
		}
		c.lastReadEnd = r.Offset + r.Size
		c.ReadTime += r.Duration()
	case "write":
		c.Writes++
		c.BytesWritten += r.Size
		if r.Size > c.MaxWriteSize {
			c.MaxWriteSize = r.Size
		}
		c.WriteHist[bucketOf(r.Size)]++
		if r.Offset == c.lastWriteEnd && c.Writes > 1 {
			c.ConsecWrites++
		}
		if r.Offset >= c.lastWriteEnd && c.Writes > 1 {
			c.SeqWrites++
		}
		c.lastWriteEnd = r.Offset + r.Size
		c.WriteTime += r.Duration()
	case "open":
		c.Opens++
		c.MetaTime += r.Duration()
	case "close":
		c.Closes++
		c.MetaTime += r.Duration()
	case "stat":
		c.Stats2++
		c.MetaTime += r.Duration()
	case "fsync":
		c.Fsyncs++
		c.MetaTime += r.Duration()
	default:
		c.MetaTime += r.Duration()
	}
}

// IngestAll processes a batch of records.
func (p *Profiler) IngestAll(recs []trace.Record) {
	for _, r := range recs {
		p.Ingest(r)
	}
}

// PerRank returns all per-(rank,file) counters, sorted by (path, rank).
func (p *Profiler) PerRank() []*FileCounters {
	out := make([]*FileCounters, 0, len(p.counters))
	for _, c := range p.counters {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// PerFile reduces counters across ranks (Darshan's shared-file reduction),
// returning one aggregate per path sorted by path.
func (p *Profiler) PerFile() []*FileCounters {
	agg := map[string]*FileCounters{}
	for _, c := range p.counters {
		a := agg[c.Path]
		if a == nil {
			a = &FileCounters{Rank: -1, Path: c.Path, FirstOp: c.FirstOp, LastOp: c.LastOp}
			agg[c.Path] = a
		}
		a.Opens += c.Opens
		a.Closes += c.Closes
		a.Stats2 += c.Stats2
		a.Fsyncs += c.Fsyncs
		a.Reads += c.Reads
		a.Writes += c.Writes
		a.BytesRead += c.BytesRead
		a.BytesWritten += c.BytesWritten
		a.ConsecReads += c.ConsecReads
		a.ConsecWrites += c.ConsecWrites
		a.SeqReads += c.SeqReads
		a.SeqWrites += c.SeqWrites
		a.ReadTime += c.ReadTime
		a.WriteTime += c.WriteTime
		a.MetaTime += c.MetaTime
		if c.MaxReadSize > a.MaxReadSize {
			a.MaxReadSize = c.MaxReadSize
		}
		if c.MaxWriteSize > a.MaxWriteSize {
			a.MaxWriteSize = c.MaxWriteSize
		}
		if c.FirstOp < a.FirstOp {
			a.FirstOp = c.FirstOp
		}
		if c.LastOp > a.LastOp {
			a.LastOp = c.LastOp
		}
		for i := 0; i < NumBuckets; i++ {
			a.ReadHist[i] += c.ReadHist[i]
			a.WriteHist[i] += c.WriteHist[i]
		}
	}
	out := make([]*FileCounters, 0, len(agg))
	for _, a := range agg {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// ReadWriteRatio returns bytesRead / (bytesRead + bytesWritten) over all
// counters; 0 when no data moved.
func (p *Profiler) ReadWriteRatio() float64 {
	var r, w int64
	for _, c := range p.counters {
		r += c.BytesRead
		w += c.BytesWritten
	}
	if r+w == 0 {
		return 0
	}
	return float64(r) / float64(r+w)
}

// SequentialFraction returns the fraction of read+write ops that were
// sequential (offset at or past the previous end).
func (p *Profiler) SequentialFraction() float64 {
	var seq, ops uint64
	for _, c := range p.counters {
		seq += c.SeqReads + c.SeqWrites
		// First op per stream has no predecessor; exclude it.
		if c.Reads > 0 {
			ops += c.Reads - 1
		}
		if c.Writes > 0 {
			ops += c.Writes - 1
		}
	}
	if ops == 0 {
		return 0
	}
	return float64(seq) / float64(ops)
}

// DominantAccessSize returns the histogram bucket label holding the most
// operations across reads and writes.
func (p *Profiler) DominantAccessSize() string {
	var hist [NumBuckets]uint64
	for _, c := range p.counters {
		for i := 0; i < NumBuckets; i++ {
			hist[i] += c.ReadHist[i] + c.WriteHist[i]
		}
	}
	best, bestN := 0, uint64(0)
	for i, n := range hist {
		if n > bestN {
			best, bestN = i, n
		}
	}
	if bestN == 0 {
		return "none"
	}
	return BucketLabel(best)
}

// WriteReport emits a human-readable per-file report.
func (p *Profiler) WriteReport(w io.Writer) error {
	files := p.PerFile()
	var b strings.Builder
	fmt.Fprintf(&b, "# I/O characterization: %d files, rw-ratio %.2f, seq-fraction %.2f, dominant size %s\n",
		len(files), p.ReadWriteRatio(), p.SequentialFraction(), p.DominantAccessSize())
	for _, f := range files {
		fmt.Fprintf(&b, "%-30s reads=%-6d writes=%-6d bytesR=%-10d bytesW=%-10d seqR=%d seqW=%d opens=%d\n",
			f.Path, f.Reads, f.Writes, f.BytesRead, f.BytesWritten, f.SeqReads, f.SeqWrites, f.Opens)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON emits the per-file reduction as JSON.
func (p *Profiler) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(p.PerFile())
}
