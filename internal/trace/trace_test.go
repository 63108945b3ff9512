package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pioeval/internal/des"
)

func sampleRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	ops := []string{"read", "write", "open", "close", "stat"}
	paths := []string{"/a", "/b/c", "/data/ckpt.0"}
	recs := make([]Record, n)
	t := des.Time(0)
	for i := range recs {
		d := des.Time(rng.Intn(1000) + 1)
		recs[i] = Record{
			Rank:   rng.Intn(8),
			Layer:  Layer(rng.Intn(int(numLayers))),
			Op:     ops[rng.Intn(len(ops))],
			Path:   paths[rng.Intn(len(paths))],
			Offset: int64(rng.Intn(1 << 20)),
			Size:   int64(rng.Intn(1 << 16)),
			Start:  t,
			End:    t + d,
		}
		t += d
	}
	return recs
}

func TestLayerString(t *testing.T) {
	if LayerMPIIO.String() != "mpiio" || LayerPFS.String() != "pfs" {
		t.Error("layer names wrong")
	}
	l, err := ParseLayer("posix")
	if err != nil || l != LayerPOSIX {
		t.Errorf("ParseLayer = %v, %v", l, err)
	}
	if _, err := ParseLayer("bogus"); err == nil {
		t.Error("ParseLayer should reject unknown names")
	}
}

func TestCollectorBasics(t *testing.T) {
	c := NewCollector()
	c.Emit(Record{Op: "read"})
	c.Emit(Record{Op: "write"})
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("reset should clear")
	}
	var nilC *Collector
	nilC.Emit(Record{}) // must not panic
}

func TestCollectorLimit(t *testing.T) {
	c := NewCollector()
	c.SetLimit(3)
	for i := 0; i < 10; i++ {
		c.Emit(Record{})
	}
	if c.Len() != 3 || c.Dropped() != 7 {
		t.Fatalf("len=%d dropped=%d", c.Len(), c.Dropped())
	}
}

func TestFilters(t *testing.T) {
	recs := []Record{
		{Rank: 0, Layer: LayerPOSIX, Op: "read"},
		{Rank: 1, Layer: LayerMPIIO, Op: "write"},
		{Rank: 0, Layer: LayerMPIIO, Op: "write"},
	}
	if got := len(ByLayer(recs, LayerMPIIO)); got != 2 {
		t.Errorf("ByLayer = %d", got)
	}
	if got := len(ByRank(recs, 0)); got != 2 {
		t.Errorf("ByRank = %d", got)
	}
	if got := len(Filter(recs, func(r Record) bool { return r.Op == "read" })); got != 1 {
		t.Errorf("Filter by op = %d", got)
	}
}

func TestSummarize(t *testing.T) {
	recs := []Record{
		{Rank: 0, Op: "write", Size: 100, Start: 0, End: 10},
		{Rank: 1, Op: "read", Size: 50, Start: 5, End: 25},
		{Rank: 0, Op: "open", Start: 25, End: 30},
	}
	s := Summarize(recs)
	if s.Records != 3 || s.Ranks != 2 {
		t.Errorf("records/ranks = %d/%d", s.Records, s.Ranks)
	}
	if s.BytesWritten != 100 || s.BytesRead != 50 {
		t.Errorf("bytes = w%d r%d", s.BytesWritten, s.BytesRead)
	}
	if s.MetaOps != 1 || s.ReadOps != 1 || s.WriteOps != 1 {
		t.Errorf("ops = %+v", s)
	}
	if s.Span != 30 || s.IOTime != 35 {
		t.Errorf("span=%v iotime=%v", s.Span, s.IOTime)
	}
	if z := Summarize(nil); z.Records != 0 {
		t.Error("empty summarize")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	recs := sampleRecords(500, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, recs); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !reflect.DeepEqual(recs, got) {
		t.Fatal("binary round trip mismatch")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("NOPE00000000000000"))); err == nil {
		t.Error("bad magic should error")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should error")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	recs := sampleRecords(100, 2)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, recs); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if !reflect.DeepEqual(recs, got) {
		t.Fatal("JSON round trip mismatch")
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	recs := sampleRecords(2000, 3)
	var bin, js bytes.Buffer
	if err := WriteBinary(&bin, recs); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&js, recs); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= js.Len() {
		t.Errorf("binary (%d B) should be smaller than JSON (%d B)", bin.Len(), js.Len())
	}
}

// Property: binary codec round-trips arbitrary records (with valid layers
// and op/path strings).
func TestPropBinaryRoundTrip(t *testing.T) {
	f := func(rank int16, layer uint8, opPick uint8, off, size int32, start, end uint32) bool {
		ops := []string{"read", "write", "", "weird op/with=chars"}
		r := Record{
			Rank:   int(rank),
			Layer:  Layer(layer % uint8(numLayers)),
			Op:     ops[int(opPick)%len(ops)],
			Path:   "/p",
			Offset: int64(off),
			Size:   int64(size),
			Start:  des.Time(start),
			End:    des.Time(end),
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, []Record{r}); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil || len(got) != 1 {
			return false
		}
		return got[0] == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
