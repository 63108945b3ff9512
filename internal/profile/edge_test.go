package profile

import (
	"testing"

	"pioeval/internal/trace"
)

// TestDXTZeroOpFile pins DXT semantics for files that are opened and
// closed but never read or written: the per-file counters exist (metadata
// activity is real), but the extended trace stays empty — DXT records
// data operations only.
func TestDXTZeroOpFile(t *testing.T) {
	p := New()
	p.EnableDXT()
	recs := []trace.Record{
		{Layer: trace.LayerPOSIX, Rank: 0, Path: "/meta-only", Op: "open", Start: 0, End: 10},
		{Layer: trace.LayerPOSIX, Rank: 0, Path: "/meta-only", Op: "stat", Start: 10, End: 20},
		{Layer: trace.LayerPOSIX, Rank: 0, Path: "/meta-only", Op: "close", Start: 20, End: 30},
	}
	p.IngestAll(recs)
	if got := p.DXT(); len(got) != 0 {
		t.Fatalf("DXT on a zero-op file has %d records, want 0", len(got))
	}
	files := p.PerFile()
	if len(files) != 1 {
		t.Fatalf("PerFile returned %d entries, want 1", len(files))
	}
	fc := files[0]
	if fc.Opens != 1 || fc.Closes != 1 || fc.Stats2 != 1 {
		t.Errorf("metadata counters = opens %d closes %d stats %d, want 1/1/1", fc.Opens, fc.Closes, fc.Stats2)
	}
	if fc.Reads != 0 || fc.Writes != 0 || fc.BytesRead != 0 || fc.BytesWritten != 0 {
		t.Errorf("zero-op file has data counters: %+v", fc)
	}

	// A data op on another file still lands in DXT: the filter is per
	// operation, not per profiler.
	p.Ingest(trace.Record{Layer: trace.LayerPOSIX, Rank: 0, Path: "/data", Op: "write", Size: 4096, Start: 30, End: 40})
	if got := p.DXT(); len(got) != 1 {
		t.Fatalf("DXT after one write has %d records, want 1", len(got))
	}
}
