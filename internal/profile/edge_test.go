package profile

import (
	"testing"

	"pioeval/internal/trace"
)

// TestDXTZeroOpFile pins the profile of a file that is opened and closed
// but never read or written: the per-file counters exist (metadata
// activity is real) and the data counters stay zero.
func TestDXTZeroOpFile(t *testing.T) {
	p := New()
	recs := []trace.Record{
		{Layer: trace.LayerPOSIX, Rank: 0, Path: "/meta-only", Op: "open", Start: 0, End: 10},
		{Layer: trace.LayerPOSIX, Rank: 0, Path: "/meta-only", Op: "stat", Start: 10, End: 20},
		{Layer: trace.LayerPOSIX, Rank: 0, Path: "/meta-only", Op: "close", Start: 20, End: 30},
	}
	p.IngestAll(recs)
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
}
