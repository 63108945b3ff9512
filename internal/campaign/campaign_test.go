package campaign

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestExpandCartesian(t *testing.T) {
	s := Spec{
		Ranks:         []int{2, 4},
		Devices:       []string{"hdd", "ssd"},
		TransferSizes: []int64{1 << 20, 4 << 20},
	}
	pts := s.Expand()
	if len(pts) != 8 {
		t.Fatalf("expanded %d points, want 8", len(pts))
	}
	for i, p := range pts {
		if p.ID != i {
			t.Errorf("point %d has ID %d", i, p.ID)
		}
		// Defaulted axes must be filled in.
		if p.StripeCount != 4 || p.StripeSize != 1<<20 || p.Pattern != "sequential" {
			t.Errorf("point %d missing defaults: %+v", i, p)
		}
	}
	// Axis order is fixed: ranks outermost, faults innermost.
	if pts[0].Ranks != 2 || pts[4].Ranks != 4 {
		t.Errorf("ranks axis not outermost: %+v", pts)
	}
	if pts[0].TransferSize != 1<<20 || pts[1].TransferSize != 4<<20 {
		t.Errorf("transfer axis not innermost of the three: %+v", pts[:2])
	}
}

func TestRunSeedStability(t *testing.T) {
	// The derivation is part of the BENCH_*.json contract: changing it
	// invalidates recorded trajectories, so pin a few values.
	if s := RunSeed(42, 0); s != RunSeed(42, 0) {
		t.Fatal("RunSeed not deterministic")
	}
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := RunSeed(42, i)
		if s < 0 {
			t.Fatalf("RunSeed(42, %d) = %d, want non-negative", i, s)
		}
		if j, dup := seen[s]; dup {
			t.Fatalf("seed collision between runs %d and %d", i, j)
		}
		seen[s] = i
	}
	if RunSeed(1, 5) == RunSeed(2, 5) {
		t.Error("different campaign seeds should disperse")
	}
}

func TestValidate(t *testing.T) {
	bad := []Spec{
		{Workload: "nope"},
		{Ranks: []int{0}},
		{Devices: []string{"floppy"}},
		{Patterns: []string{"zigzag"}},
		{Faults: []string{"explode@1s"}},
		{Workload: WorkloadCheckpoint, Collective: []bool{true}},
		{Workload: WorkloadCheckpoint, Patterns: []string{"random"}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should fail validation: %+v", i, s)
		}
	}
	if err := (Spec{}).Validate(); err != nil {
		t.Errorf("zero spec should validate: %v", err)
	}
}

func TestParseSpec(t *testing.T) {
	src := `
# stripe sweep over two devices
campaign "stripe-sweep" {
    workload ior
    seed 7
    reps 2
    ranks 2, 4
    device hdd, ssd      # device axis
    stripe-count 1, 4
    stripe-size 1MB
    transfer-size 256KB, 1MB
    pattern sequential, random
    faults "", "ostcrash:1@5ms; ostrecover:1@40ms"
}
`
	s, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "stripe-sweep" || s.Seed != 7 || s.Reps != 2 {
		t.Fatalf("scalars wrong: %+v", s)
	}
	if len(s.Ranks) != 2 || len(s.Devices) != 2 || len(s.StripeCounts) != 2 ||
		len(s.TransferSizes) != 2 || len(s.Patterns) != 2 || len(s.Faults) != 2 {
		t.Fatalf("axes wrong: %+v", s)
	}
	if s.TransferSizes[0] != 256<<10 {
		t.Errorf("size suffix not parsed: %v", s.TransferSizes)
	}
	if s.Faults[0] != "" || !strings.Contains(s.Faults[1], "ostcrash") {
		t.Errorf("faults axis wrong: %q", s.Faults)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Expand()); got != 2*2*2*2*2*2 {
		t.Errorf("expanded %d points, want 64", got)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, src := range []string{
		``,
		`campaign "x" {`,
		`campaign x { }`,
		"campaign \"x\" {\n  ranks\n}",
		"campaign \"x\" {\n  ranks two\n}",
		"campaign \"x\" {\n  warp-factor 9\n}",
		"campaign \"x\" {\n  burstbuffer true\n}",
		"campaign \"x\" {\n  faults ostcrash:1@5ms\n}",
		"campaign \"x\" {\n}\nleftover",
	} {
		if _, err := ParseSpec(src); err == nil {
			t.Errorf("spec %q should fail to parse", src)
		}
	}
}

// smallSpec is a cheap multi-point campaign with per-rep variance (random
// pattern) used by the execution tests.
func smallSpec() Spec {
	return Spec{
		Name:          "unit",
		Seed:          11,
		Reps:          3,
		Ranks:         []int{2},
		Devices:       []string{"hdd"},
		BlockSizes:    []int64{4 << 20},
		TransferSizes: []int64{256 << 10},
		Patterns:      []string{"sequential", "random"},
	}
}

func TestRunAggregates(t *testing.T) {
	rep, err := Run(smallSpec(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 || len(rep.Runs) != 6 {
		t.Fatalf("got %d points / %d runs", len(rep.Points), len(rep.Runs))
	}
	for _, ps := range rep.Points {
		d, ok := ps.Metrics["write_MBps"]
		if !ok {
			t.Fatalf("point %d missing write_MBps: %v", ps.Point.ID, ps.Metrics)
		}
		if d.N != 3 || d.Mean <= 0 {
			t.Errorf("point %d write_MBps = %+v", ps.Point.ID, d)
		}
		if d.CILo > d.Mean || d.CIHi < d.Mean {
			t.Errorf("point %d CI [%g, %g] does not bracket mean %g",
				ps.Point.ID, d.CILo, d.CIHi, d.Mean)
		}
	}
	// Random-pattern repetitions must actually differ (distinct seeds).
	var rnd PointSummary
	for _, ps := range rep.Points {
		if ps.Point.Pattern == "random" {
			rnd = ps
		}
	}
	if rnd.Metrics["read_MBps"].StdDev == 0 {
		t.Error("random-pattern reps are identical; per-run seeds not applied")
	}
	// Runs are recorded in (point, rep) order regardless of scheduling.
	for i, r := range rep.Runs {
		if r.Point != i/3 || r.Rep != i%3 {
			t.Fatalf("run %d recorded as point %d rep %d", i, r.Point, r.Rep)
		}
		if r.Seed != RunSeed(11, i) {
			t.Fatalf("run %d seed %d, want %d", i, r.Seed, RunSeed(11, i))
		}
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	var out [2]bytes.Buffer
	for i, workers := range []int{1, 8} {
		rep, err := Run(smallSpec(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatal("workers=1 and workers=8 produced different JSON")
	}
}

func TestCheckpointWorkload(t *testing.T) {
	rep, err := Run(Spec{
		Name:          "ckpt",
		Workload:      WorkloadCheckpoint,
		Seed:          5,
		Steps:         2,
		Ranks:         []int{2},
		Devices:       []string{"hdd"},
		BlockSizes:    []int64{4 << 20},
		TransferSizes: []int64{1 << 20},
		Tiers:         []string{"direct", "bb"},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("got %d points", len(rep.Points))
	}
	direct := rep.Points[0].Metrics["effective_MBps"].Mean
	buffered := rep.Points[1].Metrics["effective_MBps"].Mean
	if direct <= 0 || buffered <= 0 {
		t.Fatalf("bad bandwidths: direct %g, buffered %g", direct, buffered)
	}
	// The bb tier's NVMe staging must beat the HDD-backed PFS.
	if buffered < 2*direct {
		t.Errorf("burst buffer absorbed %g MB/s vs direct %g MB/s; expected a clear win", buffered, direct)
	}
}

func TestFaultAxis(t *testing.T) {
	rep, err := Run(Spec{
		Name:          "faulted",
		Workload:      WorkloadCheckpoint,
		Seed:          9,
		Steps:         3,
		Ranks:         []int{2},
		Devices:       []string{"ssd"},
		BlockSizes:    []int64{2 << 20},
		TransferSizes: []int64{512 << 10},
		Faults:        []string{"", "ostcrash:1@5ms; ostrecover:1@60ms"},
	}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	nominal := rep.Points[0].Metrics
	faulted := rep.Points[1].Metrics
	if faulted["retries"].Mean == 0 && faulted["timed_out_rpcs"].Mean == 0 {
		t.Error("fault campaign never exercised the resilience path")
	}
	if nominal["retries"].Mean != 0 {
		t.Error("nominal point should not retry")
	}
	if faulted["worst_step_ms"].Mean <= nominal["worst_step_ms"].Mean {
		t.Error("crash window should stretch the worst checkpoint step")
	}
}

func TestProgressReporting(t *testing.T) {
	var last Progress
	calls := 0
	_, err := Run(smallSpec(), Options{Workers: 2, OnProgress: func(p Progress) {
		calls++
		last = p
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 6 {
		t.Errorf("progress called %d times, want one per run (6)", calls)
	}
	if last.Done != 6 || last.Total != 6 || last.ETA != 0 {
		t.Errorf("final progress = %+v", last)
	}
}

func TestWriteCSV(t *testing.T) {
	rep, err := Run(smallSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(rep.Points) {
		t.Fatalf("CSV has %d lines, want header + %d points", len(lines), len(rep.Points))
	}
	if !strings.Contains(lines[0], "write_MBps_mean") {
		t.Errorf("header missing metric columns: %s", lines[0])
	}
}

func TestReadJSONRoundTrip(t *testing.T) {
	rep, err := Run(smallSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	back := &Report{}
	if err := json.NewDecoder(&buf).Decode(back); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if rep.Name != back.Name || len(back.Points) != len(rep.Points) || len(back.Runs) != len(rep.Runs) {
		t.Fatalf("round trip lost structure: %+v", back)
	}
	if again.String() != first {
		t.Errorf("re-encoded report differs from the original")
	}
}
