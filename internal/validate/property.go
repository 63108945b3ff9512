package validate

import (
	"fmt"
	"math/rand"
	"strings"

	"pioeval/internal/campaign"
	"pioeval/internal/des"
	"pioeval/internal/iolang"
	"pioeval/internal/pfs"
)

// GStmt is one generated workload statement. It mirrors the iolang
// statement forms the generator emits and is kept structured (rather than
// as source text) so the shrinker can apply semantic reductions.
type GStmt struct {
	// Kind is one of: write, read, fsync, close, stat, barrier, compute,
	// loop.
	Kind string
	// File indexes the flat file namespace ("/p<File>") for I/O ops.
	File int
	// Off/RankStride/IterStride render as offset=Off+rank*RankStride+
	// iter*IterStride (omitting zero terms).
	Off, RankStride, IterStride int64
	// Size and optional Chunk for read/write.
	Size, Chunk int64
	// Dur is the compute duration in simulated nanoseconds.
	Dur int64
	// Count and Body describe a loop.
	Count int
	Body  []GStmt
}

// Case is one generated scenario: an engine seed, a cluster shape (mapped
// to a deployment via campaign.ClusterConfig, exactly as campaign grids
// are), and a generated iolang program.
type Case struct {
	Seed  int64
	Point campaign.Point
	Body  []GStmt
}

// Source renders the case's program as iolang source. Rendering is the
// contract between the structured form and reproduction: a regression test
// replays the rendered text through RunSource.
func (c Case) Source() string {
	var b strings.Builder
	b.WriteString("workload \"prop\" {\n")
	fmt.Fprintf(&b, "\tranks %d\n", c.Point.Ranks)
	fmt.Fprintf(&b, "\tstripe count=%d size=%d\n", c.Point.StripeCount, c.Point.StripeSize)
	renderBody(&b, c.Body, 1)
	b.WriteString("}\n")
	return b.String()
}

func renderBody(b *strings.Builder, body []GStmt, depth int) {
	indent := strings.Repeat("\t", depth)
	for _, s := range body {
		switch s.Kind {
		case "barrier":
			fmt.Fprintf(b, "%sbarrier\n", indent)
		case "compute":
			fmt.Fprintf(b, "%scompute %d\n", indent, s.Dur)
		case "loop":
			fmt.Fprintf(b, "%sloop %d {\n", indent, s.Count)
			renderBody(b, s.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", indent)
		case "read", "write":
			fmt.Fprintf(b, "%s%s \"/p%d\" offset=%s size=%d", indent, s.Kind, s.File, renderOffset(s), s.Size)
			if s.Chunk > 0 {
				fmt.Fprintf(b, " chunk=%d", s.Chunk)
			}
			b.WriteByte('\n')
		default: // fsync, close, stat
			fmt.Fprintf(b, "%s%s \"/p%d\"\n", indent, s.Kind, s.File)
		}
	}
}

func renderOffset(s GStmt) string {
	terms := []string{fmt.Sprintf("%d", s.Off)}
	if s.RankStride > 0 {
		terms = append(terms, fmt.Sprintf("rank*%d", s.RankStride))
	}
	if s.IterStride > 0 {
		terms = append(terms, fmt.Sprintf("iter*%d", s.IterStride))
	}
	return strings.Join(terms, "+")
}

// genSizes is the transfer-size menu; stripe sizes use the tail (>= 64 KiB).
var genSizes = []int64{4 << 10, 64 << 10, 256 << 10, 1 << 20}

var genDevices = []string{"hdd", "ssd", "nvme"}

// GenCase deterministically generates a scenario from seed: a cluster
// shape drawn from the campaign axes and an SPMD iolang program (identical
// text per rank, so literal loop bounds and barrier counts always match
// across ranks and generated programs cannot deadlock by construction).
func GenCase(seed int64) Case {
	rng := rand.New(rand.NewSource(seed))
	p := campaign.Point{
		Ranks:       1 + rng.Intn(4),
		Device:      genDevices[rng.Intn(len(genDevices))],
		StripeCount: 1 + rng.Intn(4),
		StripeSize:  genSizes[1+rng.Intn(len(genSizes)-1)],
	}
	files := 1 + rng.Intn(3)
	return Case{
		Seed:  seed,
		Point: p,
		Body:  genBody(rng, 3+rng.Intn(6), 0, files),
	}
}

func genBody(rng *rand.Rand, n, depth, files int) []GStmt {
	body := make([]GStmt, 0, n)
	for i := 0; i < n; i++ {
		body = append(body, genStmt(rng, depth, files))
	}
	return body
}

func genStmt(rng *rand.Rand, depth, files int) GStmt {
	k := rng.Intn(100)
	switch {
	case k < 35:
		return genIO(rng, "write", files)
	case k < 55:
		return genIO(rng, "read", files)
	case k < 65:
		return GStmt{Kind: "barrier"}
	case k < 75:
		return GStmt{Kind: "compute", Dur: int64(rng.Intn(5)) * 100_000}
	case k < 83:
		return GStmt{Kind: "fsync", File: rng.Intn(files)}
	case k < 88:
		return GStmt{Kind: "close", File: rng.Intn(files)}
	case k < 93:
		return GStmt{Kind: "stat", File: rng.Intn(files)}
	default:
		if depth >= 2 {
			return genIO(rng, "write", files)
		}
		return GStmt{
			Kind:  "loop",
			Count: 1 + rng.Intn(3),
			Body:  genBody(rng, 1+rng.Intn(3), depth+1, files),
		}
	}
}

func genIO(rng *rand.Rand, kind string, files int) GStmt {
	size := genSizes[rng.Intn(len(genSizes))]
	s := GStmt{
		Kind: kind,
		File: rng.Intn(files),
		Off:  int64(rng.Intn(4)) * size,
		Size: size,
	}
	if rng.Intn(2) == 0 {
		s.RankStride = size
	}
	if rng.Intn(3) == 0 {
		s.IterStride = size
	}
	if rng.Intn(4) == 0 {
		s.Chunk = size / 4
	}
	return s
}

// CaseResult is the outcome of running one case with invariants attached.
type CaseResult struct {
	Report     iolang.Report
	Err        error
	Violations []Violation
	Stats      CheckStats
}

// OK reports whether the run completed without error or violation.
func (r CaseResult) OK() bool { return r.Err == nil && len(r.Violations) == 0 }

// RunCase runs the case's rendered program. See RunSource.
func RunCase(c Case) CaseResult { return RunSource(c.Seed, c.Point, c.Source()) }

// RunSource runs an iolang program on the cluster described by p (via
// campaign.ClusterConfig) with the full invariant checker attached, and
// returns the verdict. Regression tests emitted by Failure.Regression call
// this directly with the shrunk program text.
func RunSource(seed int64, p campaign.Point, src string) CaseResult {
	w, err := iolang.Parse(src)
	if err != nil {
		return CaseResult{Err: fmt.Errorf("validate: generated program does not parse: %w", err)}
	}
	e := des.NewEngine(seed)
	fs := pfs.New(e, campaign.ClusterConfig(p))
	inv, col := Arm(e, fs, nil)
	rep, rerr := iolang.Run(e, fs, w, col)
	return CaseResult{Report: rep, Err: rerr, Violations: inv.Finish(), Stats: inv.Stats()}
}

// Judge decides whether a case reproduces the failure being shrunk; it
// must return true for failing cases. Tests substitute synthetic judges to
// exercise the shrinker without a real simulator defect.
type Judge func(Case) bool

// DefaultJudge fails a case on any runtime error or invariant violation.
func DefaultJudge(c Case) bool { return !RunCase(c).OK() }

// shrinkBudget caps judge invocations per Shrink call; shrinking is
// best-effort and must terminate even on pathological judges.
const shrinkBudget = 400

// Shrink greedily minimizes a failing case: it repeatedly tries semantic
// reductions (drop a statement, unroll a loop, reduce ranks/stripes/sizes,
// simplify the device) and keeps any candidate the judge still fails,
// restarting until a fixed point or the judge budget runs out. The result
// is a locally minimal reproducer — no single reduction can shrink it
// further — suitable for a regression test.
func Shrink(c Case, judge Judge) Case {
	if judge == nil {
		judge = DefaultJudge
	}
	budget := shrinkBudget
	for improved := true; improved && budget > 0; {
		improved = false
		for _, cand := range shrinkCandidates(c) {
			if budget <= 0 {
				break
			}
			budget--
			if judge(cand) {
				c = cand
				improved = true
				break
			}
		}
	}
	return c
}

// shrinkCandidates enumerates one-step reductions, most aggressive first.
func shrinkCandidates(c Case) []Case {
	var out []Case
	for _, nb := range bodyVariants(c.Body) {
		v := c
		v.Body = nb
		out = append(out, v)
	}
	if c.Point.Ranks > 1 {
		v := c
		v.Point.Ranks = 1
		out = append(out, v)
	}
	if c.Point.StripeCount > 1 {
		v := c
		v.Point.StripeCount = 1
		out = append(out, v)
	}
	if c.Point.Device != "hdd" {
		v := c
		v.Point.Device = "hdd"
		out = append(out, v)
	}
	return out
}

// bodyVariants returns the statement-level reductions of a body: each
// single-statement removal, loop unrolls and count reductions, halved
// sizes and durations, and zeroed offsets/strides/chunks. Variants share
// unmodified sub-slices; nothing is mutated in place.
func bodyVariants(b []GStmt) [][]GStmt {
	var out [][]GStmt
	for i := range b {
		removed := make([]GStmt, 0, len(b)-1)
		removed = append(removed, b[:i]...)
		removed = append(removed, b[i+1:]...)
		out = append(out, removed)
	}
	for i, s := range b {
		var vars []GStmt
		switch s.Kind {
		case "loop":
			unrolled := make([]GStmt, 0, len(b)-1+len(s.Body))
			unrolled = append(unrolled, b[:i]...)
			unrolled = append(unrolled, s.Body...)
			unrolled = append(unrolled, b[i+1:]...)
			out = append(out, unrolled)
			if s.Count > 1 {
				v := s
				v.Count = 1
				vars = append(vars, v)
			}
			for _, inner := range bodyVariants(s.Body) {
				v := s
				v.Body = inner
				vars = append(vars, v)
			}
		case "read", "write":
			if s.Size > 1 {
				v := s
				v.Size /= 2
				vars = append(vars, v)
			}
			for _, f := range []struct {
				get func(*GStmt) *int64
			}{
				{func(g *GStmt) *int64 { return &g.Off }},
				{func(g *GStmt) *int64 { return &g.RankStride }},
				{func(g *GStmt) *int64 { return &g.IterStride }},
				{func(g *GStmt) *int64 { return &g.Chunk }},
			} {
				v := s
				if p := f.get(&v); *p != 0 {
					*p = 0
					vars = append(vars, v)
				}
			}
		case "compute":
			if s.Dur > 0 {
				v := s
				v.Dur /= 2
				vars = append(vars, v)
			}
		}
		for _, v := range vars {
			nb := make([]GStmt, len(b))
			copy(nb, b)
			nb[i] = v
			out = append(out, nb)
		}
	}
	return out
}

// Failure is one property-harness failure, already shrunk.
type Failure struct {
	// Index is the case's position in the run; CaseSeed its derived seed.
	Index    int
	CaseSeed int64
	// Shrunk is the minimized case and Result its (failing) outcome.
	Shrunk Case
	Result CaseResult
}

// Regression renders the failure as a ready-to-commit Go test that replays
// the shrunk program through RunSource and fails on any violation.
func (f Failure) Regression() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// TestPropRegression_%d reproduces a property-harness failure\n", f.CaseSeed)
	fmt.Fprintf(&b, "// (case %d, seed %d). Generated by validate.Failure.Regression.\n", f.Index, f.CaseSeed)
	fmt.Fprintf(&b, "func TestPropRegression_%d(t *testing.T) {\n", f.CaseSeed)
	p := f.Shrunk.Point
	fmt.Fprintf(&b, "\tp := campaign.Point{Ranks: %d, Device: %q, StripeCount: %d, StripeSize: %d}\n",
		p.Ranks, p.Device, p.StripeCount, p.StripeSize)
	fmt.Fprintf(&b, "\tres := validate.RunSource(%d, p, `%s`)\n", f.Shrunk.Seed, f.Shrunk.Source())
	b.WriteString("\tif res.Err != nil {\n\t\tt.Fatalf(\"run: %v\", res.Err)\n\t}\n")
	b.WriteString("\tfor _, v := range res.Violations {\n\t\tt.Errorf(\"%s\", v)\n\t}\n")
	b.WriteString("}\n")
	return b.String()
}

// PropertyReport summarizes one property-harness run.
type PropertyReport struct {
	Seed     int64
	Cases    int
	Failures []Failure
}

// RunProperty generates and runs n cases derived from the base seed (case
// seeds come from campaign.RunSeed, the same SplitMix64 derivation
// campaigns use), shrinking every failure. The report is deterministic:
// the same seed and n always produce the same cases, verdicts, and shrunk
// reproducers.
func RunProperty(seed int64, n int) PropertyReport {
	rep := PropertyReport{Seed: seed, Cases: n}
	for i := 0; i < n; i++ {
		cs := campaign.RunSeed(seed, i)
		c := GenCase(cs)
		if !DefaultJudge(c) {
			continue
		}
		sc := Shrink(c, DefaultJudge)
		rep.Failures = append(rep.Failures, Failure{
			Index:    i,
			CaseSeed: cs,
			Shrunk:   sc,
			Result:   RunCase(sc),
		})
	}
	return rep
}
