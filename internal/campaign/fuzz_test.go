package campaign

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// maxFuzzPoints bounds grid expansion during fuzzing: the cartesian
// product of fuzzer-supplied axes can be astronomically large, and Expand
// materializes it.
const maxFuzzPoints = 10_000

// specSeeds is FuzzSpecParse's in-source seed corpus; its corpus files
// are under testdata/fuzz/FuzzSpecParse.
var specSeeds = []string{
	"campaign \"t\" {\n}\n",
	"campaign \"t\" {\n\tseed 7\n\treps 2\n\tranks 2, 4\n\tdevice hdd, ssd\n}\n",
	"campaign \"t\" {\n\tworkload checkpoint\n\ttier direct, bb\n\tblock-size 1MB\n}\n",
	"campaign \"t\" {\n\ttransfer-size 256KB, 1MB # comment\n\tfaults \"\", \"ostcrash:1@5ms\"\n}\n",
	"campaign \"t\" {\n\tworkload checkpoint\n\ttier direct, bb, nodelocal\n\tblock-size 1MB\n}\n",
	"campaign \"t\" {\n\ttier warp\n}\n",
	"campaign \"t\" {\n\tcompress none, lz, deflate\n\tdevice hdd, nvme\n}\n",
	"campaign \"t\" {\n\tworkload checkpoint\n\tcompress sz\n\ttier bb\n\tblock-size 4MB\n}\n",
	"campaign \"t\" {\n\ttier warp\n\tcompress brotli\n}\n",
	"campaign \"broken\" {",
	"campaign \"t\" {\n\tranks 0\n}\n",
	"not a campaign",
}

// FuzzSpecParse fuzzes the campaign spec grammar: parsing must never
// panic, and any spec that parses and validates must expand to a
// well-formed grid (sequential point IDs, every axis value concrete).
func FuzzSpecParse(f *testing.F) {
	for _, s := range specSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseSpec(src)
		if err != nil {
			return
		}
		s = s.withDefaults()
		if err := s.Validate(); err != nil {
			return
		}
		n := len(s.Ranks) * len(s.Devices) * len(s.StripeCounts) * len(s.StripeSizes) *
			len(s.BlockSizes) * len(s.TransferSizes) * len(s.Patterns) * len(s.Collective) *
			len(s.Tiers) * len(s.Compress) * len(s.Faults)
		if n <= 0 || n > maxFuzzPoints {
			return
		}
		points := s.Expand()
		if len(points) != n {
			t.Fatalf("Expand returned %d points, axes multiply to %d", len(points), n)
		}
		for i, p := range points {
			if p.ID != i {
				t.Fatalf("point %d has ID %d; IDs must be sequential", i, p.ID)
			}
			if p.Ranks <= 0 || p.StripeCount <= 0 || p.StripeSize <= 0 {
				t.Fatalf("validated spec expanded to a degenerate point: %+v", p)
			}
		}
	})
}

// TestCanonicalIdempotent: a canonical spec is its own canonical form, so
// a caller that canonicalizes once (siod keys its cache on the canonical
// spec it admits) gets what canonicalizing again would give. It holds for
// every spec of the FuzzSpecParse seed corpus that parses, and for
// hand-built specs with the verbose axis spellings.
func TestCanonicalIdempotent(t *testing.T) {
	srcs := append([]string(nil), specSeeds...)
	files, err := filepath.Glob("testdata/fuzz/FuzzSpecParse/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %d files, %v", len(files), err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		body := strings.TrimPrefix(strings.TrimSpace(string(b)), "go test fuzz v1\nstring(")
		src, err := strconv.Unquote(strings.TrimSuffix(body, ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		srcs = append(srcs, src)
	}
	specs := []Spec{
		{},
		{Tiers: []string{"direct", "bb"}, Compress: []string{"none"}},
		{Name: "n", Workload: WorkloadCheckpoint, Reps: 3, Tiers: []string{""}, Compress: []string{"lz", "none"}},
	}
	for _, src := range srcs {
		if s, err := ParseSpec(src); err == nil {
			specs = append(specs, s)
		}
	}
	for _, s := range specs {
		c := s.Canonical()
		if cc := c.Canonical(); !reflect.DeepEqual(cc, c) {
			t.Errorf("Canonical not idempotent on %+v:\n once:  %+v\n twice: %+v", s, c, cc)
		}
	}
}
