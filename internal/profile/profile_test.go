package profile

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pioeval/internal/des"
	"pioeval/internal/trace"
)

func rec(rank int, op, path string, off, size, start, end int64) trace.Record {
	return trace.Record{
		Rank: rank, Layer: trace.LayerPOSIX, Op: op, Path: path,
		Offset: off, Size: size, Start: des.Time(start), End: des.Time(end),
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int64]int{
		0:        0,
		100:      0,
		101:      1,
		1024:     1,
		10 << 10: 2,
		1 << 20:  4,
		5 << 20:  6,
		1 << 30:  8,
	}
	for size, want := range cases {
		if got := bucketOf(size); got != want {
			t.Errorf("bucketOf(%d) = %d (%s), want %d (%s)", size, got, BucketLabel(got), want, BucketLabel(want))
		}
	}
	if BucketLabel(99) != "?" {
		t.Error("out-of-range label")
	}
}

func TestCountersBasic(t *testing.T) {
	p := New()
	p.IngestAll([]trace.Record{
		rec(0, "open", "/f", 0, 0, 0, 10),
		rec(0, "write", "/f", 0, 1000, 10, 20),
		rec(0, "write", "/f", 1000, 1000, 20, 30), // consecutive
		rec(0, "write", "/f", 5000, 1000, 30, 40), // sequential (gap)
		rec(0, "write", "/f", 100, 1000, 40, 50),  // backward: neither
		rec(0, "read", "/f", 0, 500, 50, 60),
		rec(0, "fsync", "/f", 0, 0, 60, 65),
		rec(0, "close", "/f", 0, 0, 65, 70),
	})
	cs := p.PerRank()
	if len(cs) != 1 {
		t.Fatalf("counters = %d", len(cs))
	}
	c := cs[0]
	if c.Writes != 4 || c.BytesWritten != 4000 {
		t.Errorf("writes=%d bytes=%d", c.Writes, c.BytesWritten)
	}
	if c.ConsecWrites != 1 {
		t.Errorf("consec writes = %d, want 1", c.ConsecWrites)
	}
	if c.SeqWrites != 2 { // consecutive counts as sequential too
		t.Errorf("seq writes = %d, want 2", c.SeqWrites)
	}
	if c.Reads != 1 || c.BytesRead != 500 {
		t.Errorf("reads=%d bytesRead=%d", c.Reads, c.BytesRead)
	}
	if c.Opens != 1 || c.Closes != 1 || c.Fsyncs != 1 {
		t.Errorf("meta = %+v", c)
	}
	if c.FirstOp != 0 || c.LastOp != 70 {
		t.Errorf("first/last = %v/%v", c.FirstOp, c.LastOp)
	}
	if c.MaxWriteSize != 1000 {
		t.Errorf("maxWrite = %d", c.MaxWriteSize)
	}
	if c.WriteTime != 40 || c.ReadTime != 10 || c.MetaTime != 20 {
		t.Errorf("times = w%v r%v m%v", c.WriteTime, c.ReadTime, c.MetaTime)
	}
}

func TestLayerFiltering(t *testing.T) {
	p := New()
	r := rec(0, "write", "/f", 0, 100, 0, 1)
	r.Layer = trace.LayerMPIIO
	p.Ingest(r)
	if len(p.PerRank()) != 0 {
		t.Error("MPI-IO record should be ignored by POSIX profiler")
	}
	p.Layer = trace.LayerMPIIO
	p.Ingest(r)
	if len(p.PerRank()) != 1 {
		t.Error("record at configured layer should count")
	}
}

func TestSharedFileReduction(t *testing.T) {
	p := New()
	for rank := 0; rank < 4; rank++ {
		p.Ingest(rec(rank, "write", "/shared", int64(rank)*100, 100, int64(rank), int64(rank)+1))
	}
	p.Ingest(rec(0, "write", "/private", 0, 50, 10, 11))
	files := p.PerFile()
	if len(files) != 2 {
		t.Fatalf("files = %d", len(files))
	}
	// Sorted by path: /private then /shared.
	if files[0].Path != "/private" || files[1].Path != "/shared" {
		t.Fatalf("order = %s, %s", files[0].Path, files[1].Path)
	}
	sh := files[1]
	if sh.Writes != 4 || sh.BytesWritten != 400 {
		t.Errorf("shared = %+v", sh)
	}
	if sh.Rank != -1 {
		t.Errorf("reduced rank = %d, want -1", sh.Rank)
	}
	if sh.FirstOp != 0 || sh.LastOp != 4 {
		t.Errorf("reduced window = %v..%v", sh.FirstOp, sh.LastOp)
	}
}

func TestReadWriteRatio(t *testing.T) {
	p := New()
	p.Ingest(rec(0, "read", "/f", 0, 300, 0, 1))
	p.Ingest(rec(0, "write", "/f", 0, 100, 1, 2))
	if got := p.ReadWriteRatio(); got != 0.75 {
		t.Errorf("ratio = %v, want 0.75", got)
	}
	empty := New()
	if empty.ReadWriteRatio() != 0 {
		t.Error("empty ratio should be 0")
	}
}

func TestSequentialFraction(t *testing.T) {
	p := New()
	// 3 writes: 2 have predecessors, both sequential.
	p.Ingest(rec(0, "write", "/f", 0, 100, 0, 1))
	p.Ingest(rec(0, "write", "/f", 100, 100, 1, 2))
	p.Ingest(rec(0, "write", "/f", 500, 100, 2, 3))
	if got := p.SequentialFraction(); got != 1.0 {
		t.Errorf("seq fraction = %v, want 1.0", got)
	}
	// Add a random-access reader: 4 reads, 3 with predecessors, 0 seq.
	p.Ingest(rec(1, "read", "/f", 900, 10, 3, 4))
	p.Ingest(rec(1, "read", "/f", 100, 10, 4, 5))
	p.Ingest(rec(1, "read", "/f", 50, 10, 5, 6))
	p.Ingest(rec(1, "read", "/f", 20, 10, 6, 7))
	got := p.SequentialFraction()
	if got <= 0.3 || got >= 0.5 { // 2 of 5 streams-with-predecessor ops
		t.Errorf("mixed seq fraction = %v, want 0.4", got)
	}
}

func TestDominantAccessSize(t *testing.T) {
	p := New()
	for i := 0; i < 10; i++ {
		p.Ingest(rec(0, "read", "/f", int64(i)*4096, 4096, int64(i), int64(i)+1))
	}
	p.Ingest(rec(0, "write", "/f", 0, 10<<20, 100, 101))
	if got := p.DominantAccessSize(); got != "1K-10K" {
		t.Errorf("dominant = %q, want 1K-10K", got)
	}
	if New().DominantAccessSize() != "none" {
		t.Error("empty profiler dominant size")
	}
}

func TestAttachLiveHook(t *testing.T) {
	col := trace.NewCollector()
	p := New()
	p.Attach(col)
	col.Emit(rec(0, "write", "/f", 0, 128, 0, 1))
	if len(p.PerRank()) != 1 {
		t.Fatal("live hook did not ingest")
	}
}

func TestReportAndJSON(t *testing.T) {
	p := New()
	p.Ingest(rec(0, "write", "/data/x", 0, 1<<20, 0, 10))
	p.Ingest(rec(1, "read", "/data/x", 0, 1<<20, 10, 20))
	var txt bytes.Buffer
	if err := p.WriteReport(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "/data/x") {
		t.Error("report missing file path")
	}
	var js bytes.Buffer
	if err := p.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var files []*FileCounters
	if err := json.NewDecoder(&js).Decode(&files); err != nil || len(files) != 1 {
		t.Fatalf("decode = %v, %v", files, err)
	}
	if files[0].BytesWritten != 1<<20 || files[0].BytesRead != 1<<20 {
		t.Errorf("round trip = %+v", files[0])
	}
}

func TestHistogramAccumulation(t *testing.T) {
	p := New()
	sizes := []int64{50, 500, 5000, 50000, 500000, 2 << 20}
	for i, s := range sizes {
		p.Ingest(rec(0, "write", "/f", int64(i)*(10<<20), s, int64(i), int64(i)+1))
	}
	c := p.PerRank()[0]
	for i := 0; i < 6; i++ {
		if c.WriteHist[i] != 1 {
			t.Errorf("bucket %d (%s) = %d, want 1", i, BucketLabel(i), c.WriteHist[i])
		}
	}
}
