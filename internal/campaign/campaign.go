// Package campaign implements a parallel experiment-campaign runner: a
// declarative Spec describes a cartesian grid over simulation parameters
// (ranks, device model, stripe geometry, transfer/block sizes, access
// pattern, collective vs. independent MPI-IO, storage tier, data
// reduction, fault campaigns) plus a repetition count; Run expands the grid into independent
// simulation runs, executes them on a bounded worker pool, and aggregates
// per-run metrics into per-point distribution summaries (mean, median,
// p95, stddev, bootstrap confidence intervals via internal/stats).
//
// Every run gets a seed derived deterministically from the campaign seed
// and the run index, and results are stored by run index, so the
// aggregated Report — including its JSON serialization — is bit-identical
// regardless of worker count or goroutine scheduling. Key types: Spec
// (the grid), Point (one expanded configuration), RunResult (one
// simulation's metrics), Report (the aggregate). cmd/campaign is the CLI
// front end, cmd/evalcycle routes its device sweeps through Pool, and the
// bench harness (bench_campaign_test.go) uses Run for the perf
// trajectory.
package campaign

import (
	"fmt"
	"strings"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/faults"
	"pioeval/internal/reduce"
)

// Workload kinds a campaign can sweep.
const (
	// WorkloadIOR is the IOR-like bulk-I/O generator (write + read-back,
	// shared file). Pattern and Collective apply.
	WorkloadIOR = "ior"
	// WorkloadCheckpoint is the HACC-IO-like bulk-synchronous checkpoint
	// generator. Pattern and Collective do not apply.
	WorkloadCheckpoint = "checkpoint"
)

// Spec declares a campaign: a workload kind, scalar settings, and one
// list per swept axis. Empty axes default to a single representative
// value, so the zero Spec is a valid one-point campaign.
type Spec struct {
	Name     string
	Workload string // WorkloadIOR (default) or WorkloadCheckpoint
	Seed     int64  // campaign seed; per-run seeds derive from it
	Reps     int    // repetitions per grid point (default 1)
	Steps    int    // checkpoint steps (checkpoint workload only, default 4)

	// Grid axes, expanded as a cartesian product in this order.
	Ranks         []int
	Devices       []string // hdd, ssd, nvme
	StripeCounts  []int
	StripeSizes   []int64
	BlockSizes    []int64 // per-rank bytes (IOR block / checkpoint dump)
	TransferSizes []int64
	Patterns      []string // sequential, strided, random (IOR only)
	Collective    []bool   // two-phase collective MPI-IO (IOR only)
	Tiers         []string // storage tiers: direct (default), bb, nodelocal
	Compress      []string // data-reduction stage: none (default), or a reduce preset (lz, deflate, zfp, sz)
	Faults        []string // fault-campaign specs (faults.ParseCampaign syntax); "" = none
}

// Point is one fully concrete configuration from the expanded grid.
type Point struct {
	ID           int    `json:"id"`
	Ranks        int    `json:"ranks"`
	Device       string `json:"device"`
	StripeCount  int    `json:"stripe_count"`
	StripeSize   int64  `json:"stripe_size"`
	BlockSize    int64  `json:"block_size"`
	TransferSize int64  `json:"transfer_size"`
	Pattern      string `json:"pattern,omitempty"`
	Collective   bool   `json:"collective,omitempty"`
	Tier         string `json:"tier,omitempty"`     // "" = direct
	Compress     string `json:"compress,omitempty"` // "" = none
	Faults       string `json:"faults,omitempty"`
}

// Label renders the point compactly for progress lines and CSV rows.
func (p Point) Label() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ranks=%d dev=%s stripe=%dx%d xfer=%d", p.Ranks, p.Device, p.StripeCount, p.StripeSize, p.TransferSize)
	if p.Pattern != "" {
		fmt.Fprintf(&b, " pat=%s", p.Pattern)
	}
	if p.Collective {
		b.WriteString(" collective")
	}
	if p.Tier != "" {
		fmt.Fprintf(&b, " tier=%s", p.Tier)
	}
	if p.Compress != "" {
		fmt.Fprintf(&b, " comp=%s", p.Compress)
	}
	if p.Faults != "" {
		b.WriteString(" faults")
	}
	return b.String()
}

// withDefaults fills unset scalar fields and empty axes.
func (s Spec) withDefaults() Spec {
	if s.Name == "" {
		s.Name = "campaign"
	}
	if s.Workload == "" {
		s.Workload = WorkloadIOR
	}
	if s.Reps <= 0 {
		s.Reps = 1
	}
	if s.Steps <= 0 {
		s.Steps = 4
	}
	if len(s.Ranks) == 0 {
		s.Ranks = []int{4}
	}
	if len(s.Devices) == 0 {
		s.Devices = []string{"hdd"}
	}
	if len(s.StripeCounts) == 0 {
		s.StripeCounts = []int{4}
	}
	if len(s.StripeSizes) == 0 {
		s.StripeSizes = []int64{1 << 20}
	}
	if len(s.BlockSizes) == 0 {
		s.BlockSizes = []int64{16 << 20}
	}
	if len(s.TransferSizes) == 0 {
		s.TransferSizes = []int64{1 << 20}
	}
	if len(s.Patterns) == 0 {
		s.Patterns = []string{"sequential"}
	}
	if len(s.Collective) == 0 {
		s.Collective = []bool{false}
	}
	if len(s.Tiers) == 0 {
		s.Tiers = []string{""}
	}
	if len(s.Compress) == 0 {
		s.Compress = []string{""}
	}
	if len(s.Faults) == 0 {
		s.Faults = []string{""}
	}
	// Canonical spellings: "direct" is the "" tier and "none" the ""
	// compressor. Normalizing here — inside Canonical — keeps equivalent
	// spec texts hashing equal, so a result cache keyed on the canonical
	// digest (siod's) never stores the same campaign twice.
	s.Tiers = canonicalAxis(s.Tiers, "direct")
	s.Compress = canonicalAxis(s.Compress, "none")
	return s
}

// canonicalAxis rewrites an axis's verbose default spelling to the
// canonical "" without mutating the caller's slice.
func canonicalAxis(vals []string, verbose string) []string {
	changed := false
	for _, v := range vals {
		if v == verbose {
			changed = true
			break
		}
	}
	if !changed {
		return vals
	}
	out := make([]string, len(vals))
	for i, v := range vals {
		if v == verbose {
			v = ""
		}
		out[i] = v
	}
	return out
}

// Canonical returns the spec in normal form — every unset scalar and axis
// replaced by its default — so two spec texts that describe the same
// campaign compare (and hash) equal. Servers key result caches and
// single-flight deduplication on a digest of the canonical form; the
// report they get back is deterministic per canonical spec, so cache hits
// are exact.
func (s Spec) Canonical() Spec { return s.withDefaults() }

// Validate rejects specs that would expand into meaningless or unrunnable
// runs. It is called by Run; callers constructing specs by hand can call
// it early for better error locality.
func (s Spec) Validate() error {
	s = s.withDefaults()
	switch s.Workload {
	case WorkloadIOR:
	case WorkloadCheckpoint:
		for _, c := range s.Collective {
			if c {
				return fmt.Errorf("campaign: the collective axis requires the ior workload")
			}
		}
		for _, p := range s.Patterns {
			if p != "sequential" {
				return fmt.Errorf("campaign: the pattern axis requires the ior workload")
			}
		}
	default:
		return fmt.Errorf("campaign: unknown workload %q (want %s or %s)", s.Workload, WorkloadIOR, WorkloadCheckpoint)
	}
	for _, r := range s.Ranks {
		if r <= 0 {
			return fmt.Errorf("campaign: ranks must be positive, got %d", r)
		}
	}
	for _, sc := range s.StripeCounts {
		if sc <= 0 {
			return fmt.Errorf("campaign: stripe-count must be positive, got %d", sc)
		}
	}
	for _, ss := range s.StripeSizes {
		if ss <= 0 {
			return fmt.Errorf("campaign: stripe-size must be positive, got %d", ss)
		}
	}
	for _, bs := range s.BlockSizes {
		if bs <= 0 {
			return fmt.Errorf("campaign: block-size must be positive, got %d", bs)
		}
	}
	for _, ts := range s.TransferSizes {
		if ts <= 0 {
			return fmt.Errorf("campaign: transfer-size must be positive, got %d", ts)
		}
	}
	for _, d := range s.Devices {
		if blockdev.Preset(d) == nil {
			return fmt.Errorf("campaign: unknown device %q (want hdd, ssd, or nvme)", d)
		}
	}
	for _, p := range s.Patterns {
		switch p {
		case "sequential", "strided", "random":
		default:
			return fmt.Errorf("campaign: unknown pattern %q (want sequential, strided, or random)", p)
		}
	}
	for _, tier := range s.Tiers {
		switch tier {
		case "", "direct", "bb", "nodelocal":
		default:
			return fmt.Errorf("campaign: unknown tier %q (want direct, bb, or nodelocal)", tier)
		}
	}
	// The compress axis is checked after tiers so a spec that botches both
	// reports the tier first — one coherent error path, not two competing
	// messages for what is usually a single malformed stanza.
	for _, c := range s.Compress {
		switch c {
		case "", "none":
		default:
			if _, ok := reduce.Lookup(c); !ok {
				return fmt.Errorf("campaign: unknown compressor %q (want none or one of %v)", c, reduce.Names())
			}
		}
	}
	for _, f := range s.Faults {
		if f == "" {
			continue
		}
		if _, err := faults.ParseCampaign(f); err != nil {
			return fmt.Errorf("campaign: bad fault spec %q: %w", f, err)
		}
	}
	return nil
}

// Expand returns the cartesian product of the spec's axes in a fixed
// deterministic order; Point.ID is the index into the returned slice.
func (s Spec) Expand() []Point {
	s = s.withDefaults()
	var out []Point
	for _, ranks := range s.Ranks {
		for _, dev := range s.Devices {
			for _, sc := range s.StripeCounts {
				for _, ss := range s.StripeSizes {
					for _, bs := range s.BlockSizes {
						for _, ts := range s.TransferSizes {
							for _, pat := range s.Patterns {
								for _, coll := range s.Collective {
									// Spellings are already canonical here:
									// withDefaults rewrote direct/none to "".
									for _, tier := range s.Tiers {
										for _, comp := range s.Compress {
											for _, f := range s.Faults {
												out = append(out, Point{
													ID:           len(out),
													Ranks:        ranks,
													Device:       dev,
													StripeCount:  sc,
													StripeSize:   ss,
													BlockSize:    bs,
													TransferSize: ts,
													Pattern:      pat,
													Collective:   coll,
													Tier:         tier,
													Compress:     comp,
													Faults:       f,
												})
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// RunSeed derives the simulation seed for run index i of a campaign with
// the given seed. The derivation is a SplitMix64 mix of both inputs, so
// neighboring run indices get well-dispersed, independent seeds and the
// mapping depends only on (seed, i) — never on worker count or timing.
func RunSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1) // keep it non-negative for readability in reports
}

// stepDuration is the checkpoint compute time between dumps; fixed rather
// than swept so the I/O fraction stays comparable across grid points.
const stepDuration = 20 * des.Millisecond
