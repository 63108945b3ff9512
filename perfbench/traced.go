package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pioeval/internal/campaign"
	"pioeval/internal/des"
	"pioeval/internal/pfs"
	"pioeval/internal/reduce"
	"pioeval/internal/storage"
	"pioeval/internal/trace"
	"pioeval/internal/workload"
)

// layerMetrics names every per-layer metric with its unit, in print order.
// Host CPU shares (cpu.*) are added by cpuShares.
var layerMetrics = [][2]string{
	{"des.dispatches", "count"}, {"des.ns_per_dispatch", "ns"}, {"des.windows", "count"},
	{"mpiio.ops", "count"}, {"mpiio.bytes", "bytes"}, {"mpiio.self_sim_s", "rank-s"},
	{"posixio.ops", "count"}, {"posixio.bytes", "bytes"}, {"posixio.self_sim_s", "rank-s"},
	{"storage.ops.data", "count"}, {"storage.ops.meta", "count"},
	{"storage.sim_s", "rank-s"}, {"storage.self_sim_s", "rank-s"},
	{"burstbuffer.absorbed_bytes", "bytes"}, {"burstbuffer.drained_bytes", "bytes"},
	{"burstbuffer.stalls", "count"}, {"burstbuffer.peak_used_bytes", "bytes"},
	{"reduce.ratio", "ratio"}, {"reduce.codec_sim_s", "s"},
	{"pfs.client_ops.read", "count"}, {"pfs.client_ops.write", "count"}, {"pfs.client_ops.meta", "count"},
	{"pfs.client_sim_s.read", "rank-s"}, {"pfs.client_sim_s.write", "rank-s"}, {"pfs.client_sim_s.meta", "rank-s"},
	{"pfs.rpcs.meta", "count"}, {"pfs.rpcs.read", "count"}, {"pfs.rpcs.write", "count"},
	{"pfs.retries", "count"}, {"pfs.mds_ops", "count"}, {"pfs.mds_busy_s", "s"},
	{"pfs.ost_bytes.read", "bytes"}, {"pfs.ost_bytes.written", "bytes"},
	{"blockdev.ops", "count"}, {"blockdev.util_mean", "frac"}, {"blockdev.peak_queue", "count"},
	{"serve.cache_hit_frac", "frac"}, {"serve.singleflight_shared", "count"},
	{"serve.rejected_invalid", "count"}, {"serve.job_p95_ms", "ms"},
	{"trace.overhead_s", "s"}, {"trace.errors", "count"},
}

// layerStats accumulates per-layer numbers over every simulation a traced
// unit runs (campaign jobs, io500 steps, checkpoint shards).
type layerStats struct {
	vals map[string]float64
	errs []string
	// utilSum and utilN average OST utilization over every OST seen.
	utilSum float64
	utilN   int
	// logical and physical bytes through the compressor, for its ratio.
	logical, physical int64
}

func newLayerStats() *layerStats { return &layerStats{vals: map[string]float64{}} }

func (ls *layerStats) errorf(format string, args ...any) {
	ls.errs = append(ls.errs, fmt.Sprintf(format, args...))
}

// metrics renders every per-layer metric, zero where the workload bypasses
// the layer.
func (ls *layerStats) metrics() map[string]metric {
	if ls.utilN > 0 {
		ls.vals["blockdev.util_mean"] = ls.utilSum / float64(ls.utilN)
	}
	if ls.physical > 0 {
		ls.vals["reduce.ratio"] = float64(ls.logical) / float64(ls.physical)
	}
	out := map[string]metric{}
	for _, m := range layerMetrics {
		out[m[0]] = metric{ls.vals[m[0]], m[1]}
	}
	return out
}

// Layers a span can belong to, top to bottom. Spans of the application
// itself are not recorded: a span with no parent belongs to it.
const (
	lMPIIO = iota
	lPOSIX
	lStorage
	lPFS
	numSpanLayers
)

var spanLayerNames = [numSpanLayers]string{"mpiio", "posixio", "storage", "pfs"}

type span struct{ start, end des.Time }

func (s span) dur() des.Time { return s.end - s.start }

// simTrace observes one simulation (one engine and file system) through
// the public seams: the trace collector, the pfs op and OST observers and
// the benchmark's own pass-through storage stage. Spans are kept per rank
// and placed under their parents when the simulation ends.
type simTrace struct {
	e   *des.Engine
	fs  *pfs.FS
	pr  *storage.Provider
	col *trace.Collector
	// prefix names the ranks' compute nodes (<prefix><rank>); "" when the
	// ranks call the file system directly and no span nests under another.
	prefix string
	stage  *passStage
	spans  [numSpanLayers]map[int][]span
	c      rawCounts
}

func newSimTrace(e *des.Engine, fs *pfs.FS, pr *storage.Provider, prefix string) *simTrace {
	st := &simTrace{e: e, fs: fs, pr: pr, prefix: prefix}
	for i := range st.spans {
		st.spans[i] = map[int][]span{}
	}
	fs.SetOpObserver(st.onOp)
	fs.SetOSTObserver(st.onOST)
	if prefix != "" {
		st.col = trace.NewCollector()
		st.col.SetLimit(1) // records flow through the hook; retention is not needed
		st.col.SetHook(st.onRecord)
	}
	return st
}

func (st *simTrace) add(layer, rank int, s span) {
	st.spans[layer][rank] = append(st.spans[layer][rank], s)
}

func (st *simTrace) onRecord(r trace.Record) {
	switch r.Layer {
	case trace.LayerMPIIO:
		st.add(lMPIIO, r.Rank, span{r.Start, r.End})
		if strings.Contains(r.Op, "read") || strings.Contains(r.Op, "write") {
			st.c.mpiioBytes += r.Size
		}
	case trace.LayerPOSIX:
		st.add(lPOSIX, r.Rank, span{r.Start, r.End})
		if r.Op == "read" || r.Op == "write" {
			st.c.posixBytes += r.Size
		}
	default:
		st.c.stray = append(st.c.stray, fmt.Sprintf("collector record from layer %s (%s)", r.Layer, r.Op))
	}
}

// rawCounts are the observer-side tallies of one simulation.
type rawCounts struct {
	mpiioBytes, posixBytes int64
	pfsOps                 [3]int
	pfsSim                 [3]des.Time
	ostRead, ostWritten    int64
	stray                  []string
}

// pfs operation classes.
const (
	opRead = iota
	opWrite
	opMeta
)

func (st *simTrace) onOp(ev pfs.OpEvent) {
	cls := opMeta
	switch ev.Op {
	case "read":
		cls = opRead
	case "write":
		cls = opWrite
	}
	c := &st.c
	c.pfsOps[cls]++
	c.pfsSim[cls] += ev.End - ev.Start
	if st.prefix == "" {
		return // ranks call the file system directly: the op's parent is the application
	}
	rank, ok := st.rankOf(ev.Client)
	if !ok {
		if st.isBuffer(ev.Client) {
			return // drain traffic: its parent is the burst buffer
		}
		c.stray = append(c.stray, fmt.Sprintf("pfs %s by client %q belongs to no rank or burst buffer", ev.Op, ev.Client))
		return
	}
	st.add(lPFS, rank, span{ev.Start, ev.End})
}

func (st *simTrace) onOST(ev pfs.OSTEvent) {
	c := &st.c
	if ev.Write {
		c.ostWritten += ev.Size
	} else {
		c.ostRead += ev.Size
	}
}

func (st *simTrace) rankOf(node string) (int, bool) {
	rest, ok := strings.CutPrefix(node, st.prefix)
	if !ok {
		return 0, false
	}
	r, err := strconv.Atoi(rest)
	return r, err == nil
}

func (st *simTrace) isBuffer(node string) bool {
	if st.pr == nil {
		return false
	}
	for _, bb := range st.pr.Buffers() {
		if bb.Node() == node {
			return true
		}
	}
	return false
}

// finish folds the simulation's counters and its span accounting into ls.
func (st *simTrace) finish(ls *layerStats) {
	c := &st.c
	v := ls.vals
	v["des.dispatches"] += float64(st.e.Dispatches())
	v["mpiio.bytes"] += float64(c.mpiioBytes)
	v["posixio.bytes"] += float64(c.posixBytes)
	for i, name := range []string{"read", "write", "meta"} {
		v["pfs.client_ops."+name] += float64(c.pfsOps[i])
		v["pfs.client_sim_s."+name] += c.pfsSim[i].Seconds()
	}
	v["pfs.ost_bytes.read"] += float64(c.ostRead)
	v["pfs.ost_bytes.written"] += float64(c.ostWritten)
	ls.errs = append(ls.errs, c.stray...)

	cs := st.fs.ClientStatsTotal()
	v["pfs.rpcs.meta"] += float64(cs.MetaRPCs)
	v["pfs.rpcs.read"] += float64(cs.ReadRPCs)
	v["pfs.rpcs.write"] += float64(cs.WriteRPCs)
	v["pfs.retries"] += float64(cs.Retries)
	md := st.fs.MDSStats()
	v["pfs.mds_ops"] += float64(md.TotalOps)
	v["pfs.mds_busy_s"] += md.BusyTime.Seconds()
	for _, o := range st.fs.OSTStats() {
		v["blockdev.ops"] += float64(o.ReadOps + o.WriteOps)
		ls.utilSum += o.Utilization
		ls.utilN++
		if q := float64(o.PeakQueue); q > v["blockdev.peak_queue"] {
			v["blockdev.peak_queue"] = q
		}
	}
	if st.pr != nil {
		for _, bb := range st.pr.Buffers() {
			b := bb.Stats()
			v["burstbuffer.absorbed_bytes"] += float64(b.Absorbed)
			v["burstbuffer.drained_bytes"] += float64(b.Drained)
			v["burstbuffer.stalls"] += float64(b.Stalls)
			if p := float64(b.PeakUsed); p > v["burstbuffer.peak_used_bytes"] {
				v["burstbuffer.peak_used_bytes"] = p
			}
		}
		for _, s := range st.pr.Stages() {
			if r, ok := s.(*reduce.Stage); ok {
				rs := r.StageStats()
				ls.logical += rs.LogicalWritten
				ls.physical += rs.PhysicalWritten
				v["reduce.codec_sim_s"] += rs.CompressSeconds + rs.DecompressSeconds
			}
		}
	}
	if st.stage != nil {
		v["storage.ops.data"] += float64(st.stage.dataOps)
		v["storage.ops.meta"] += float64(st.stage.metaOps)
		for node, spans := range st.stage.spans {
			rank, ok := st.rankOf(node)
			if !ok {
				ls.errorf("storage op on node %q belongs to no rank", node)
				continue
			}
			st.spans[lStorage][rank] = append(st.spans[lStorage][rank], spans...)
		}
	}
	st.account(ls)
}

// account places every span under its parent layer and computes each
// layer's self time: its total time minus the time of its children. The
// parent of a span is the nearest instrumented layer above it whose span on
// the same rank contains it; mpiio and posixio spans may sit directly under
// the application, storage spans must sit under posixio, and pfs spans under
// storage (or under posixio when no stage is instrumented). A span that
// cannot be placed, or a negative self time, is a trace error.
func (st *simTrace) account(ls *layerStats) {
	v := ls.vals
	var total, childTime [numSpanLayers]des.Time
	var count [numSpanLayers]int
	for l := 0; l < numSpanLayers; l++ {
		for _, spans := range st.spans[l] {
			sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
			for _, s := range spans {
				total[l] += s.dur()
				count[l]++
			}
		}
	}
	parents := func(l int) []int {
		switch l {
		case lPOSIX:
			return []int{lMPIIO}
		case lStorage:
			return []int{lPOSIX}
		case lPFS:
			if st.stage != nil {
				return []int{lStorage}
			}
			return []int{lPOSIX}
		}
		return nil
	}
	mustNest := map[int]bool{lStorage: true, lPFS: true}
	unplaced := [numSpanLayers]int{}
	for l := lPOSIX; l < numSpanLayers; l++ {
		for rank, spans := range st.spans[l] {
			for _, s := range spans {
				placed := false
				for _, p := range parents(l) {
					if contains(st.spans[p][rank], s) {
						childTime[p] += s.dur()
						placed = true
						break
					}
				}
				if !placed && mustNest[l] {
					unplaced[l]++
				}
			}
		}
	}
	for l, n := range unplaced {
		if n > 0 {
			ls.errorf("%d %s spans lie inside no %s span of their rank", n, spanLayerNames[l], spanLayerNames[parents(l)[0]])
		}
	}
	for _, l := range []int{lMPIIO, lPOSIX, lStorage} {
		name := spanLayerNames[l]
		self := total[l] - childTime[l]
		if self < 0 {
			ls.errorf("%s self time %v is negative (total %v, children %v)", name, self, total[l], childTime[l])
		}
		v[name+".self_sim_s"] += self.Seconds()
	}
	v["mpiio.ops"] += float64(count[lMPIIO])
	v["posixio.ops"] += float64(count[lPOSIX])
	v["storage.sim_s"] += total[lStorage].Seconds()
}

// contains reports whether a span of parents (sorted by start, disjoint on
// one rank) encloses s.
func contains(parents []span, s span) bool {
	i := sort.Search(len(parents), func(i int) bool { return parents[i].start > s.start })
	for j := i - 1; j >= 0 && parents[j].end >= s.start; j-- {
		if parents[j].start <= s.start && s.end <= parents[j].end {
			return true
		}
	}
	return false
}

// ---- the benchmark's pass-through storage stage ----

// passStage is a storage.Stage that forwards every call unchanged and
// records a span per call, keyed by compute node.
type passStage struct {
	spans            map[string][]span
	dataOps, metaOps int
}

func newPassStage() *passStage { return &passStage{spans: map[string][]span{}} }

func (s *passStage) Name() string          { return "perfbench-trace" }
func (s *passStage) Flush(*des.Proc) error { return nil }
func (s *passStage) Wrap(node string, t storage.Target) storage.Target {
	return &passTarget{s, node, t}
}

func (s *passStage) record(node string, p *des.Proc, start des.Time, data bool) {
	s.spans[node] = append(s.spans[node], span{start, p.Now()})
	if data {
		s.dataOps++
	} else {
		s.metaOps++
	}
}

type passTarget struct {
	s     *passStage
	node  string
	inner storage.Target
}

func (t *passTarget) Create(p *des.Proc, path string, sc int, ss int64) (storage.Handle, error) {
	start := p.Now()
	h, err := t.inner.Create(p, path, sc, ss)
	t.s.record(t.node, p, start, false)
	if err != nil {
		return nil, err
	}
	return &passHandle{t, h}, nil
}

func (t *passTarget) Open(p *des.Proc, path string) (storage.Handle, error) {
	start := p.Now()
	h, err := t.inner.Open(p, path)
	t.s.record(t.node, p, start, false)
	if err != nil {
		return nil, err
	}
	return &passHandle{t, h}, nil
}

func (t *passTarget) Stat(p *des.Proc, path string) (storage.FileInfo, error) {
	start := p.Now()
	fi, err := t.inner.Stat(p, path)
	t.s.record(t.node, p, start, false)
	return fi, err
}

func (t *passTarget) meta(p *des.Proc, fn func() error) error {
	start := p.Now()
	err := fn()
	t.s.record(t.node, p, start, false)
	return err
}

func (t *passTarget) Mkdir(p *des.Proc, path string) error {
	return t.meta(p, func() error { return t.inner.Mkdir(p, path) })
}

func (t *passTarget) Rmdir(p *des.Proc, path string) error {
	return t.meta(p, func() error { return t.inner.Rmdir(p, path) })
}

func (t *passTarget) Unlink(p *des.Proc, path string) error {
	return t.meta(p, func() error { return t.inner.Unlink(p, path) })
}

func (t *passTarget) Readdir(p *des.Proc, path string) ([]string, error) {
	start := p.Now()
	names, err := t.inner.Readdir(p, path)
	t.s.record(t.node, p, start, false)
	return names, err
}

type passHandle struct {
	t     *passTarget
	inner storage.Handle
}

func (h *passHandle) Path() string { return h.inner.Path() }

func (h *passHandle) op(p *des.Proc, data bool, fn func() error) error {
	start := p.Now()
	err := fn()
	h.t.s.record(h.t.node, p, start, data)
	return err
}

func (h *passHandle) Write(p *des.Proc, off, size int64) error {
	return h.op(p, true, func() error { return h.inner.Write(p, off, size) })
}

func (h *passHandle) Read(p *des.Proc, off, size int64) error {
	return h.op(p, true, func() error { return h.inner.Read(p, off, size) })
}

func (h *passHandle) Fsync(p *des.Proc) error {
	return h.op(p, false, func() error { return h.inner.Fsync(p) })
}

func (h *passHandle) Close(p *des.Proc) error {
	return h.op(p, false, func() error { return h.inner.Close(p) })
}

// ---- traced rebuilds ----

// tracedCampaign reruns every job of the grid as campaign's simulate does,
// from the same public constructors, with observers attached, and returns
// the per-run metrics digest the untraced report must match.
func tracedCampaign(spec campaign.Spec) (*unit, *layerStats, error) {
	spec = spec.Canonical()
	if spec.Workload != campaign.WorkloadIOR {
		return nil, nil, fmt.Errorf("traced campaign supports the ior workload, got %q", spec.Workload)
	}
	points := spec.Expand()
	ls := newLayerStats()
	runs := make([]campaign.RunResult, len(points)*spec.Reps)
	for i := range runs {
		p := points[i/spec.Reps]
		runs[i] = campaign.RunResult{Point: p.ID, Rep: i % spec.Reps, Seed: campaign.RunSeed(spec.Seed, i)}
		m, err := tracedCampaignRun(p, runs[i].Seed, ls)
		if err != nil {
			return nil, nil, err
		}
		runs[i].Metrics = m
	}
	b, err := json.Marshal(runs)
	if err != nil {
		return nil, nil, err
	}
	u := &unit{digest: sha(b), attempted: len(runs)}
	return u, ls, nil
}

func tracedCampaignRun(p campaign.Point, seed int64, ls *layerStats) (map[string]float64, error) {
	if p.Faults != "" {
		return nil, fmt.Errorf("traced campaign does not inject faults")
	}
	e := des.NewEngine(seed)
	fs := pfs.New(e, campaign.ClusterConfig(p))
	pr, err := storage.NewProvider(e, fs, p.Tier, storage.ProviderConfig{})
	if err != nil {
		return nil, err
	}
	var comp *reduce.Stage
	if p.Compress != "" {
		if comp, err = reduce.New(p.Compress); err != nil {
			return nil, err
		}
		pr.Push(comp)
	}
	st := newSimTrace(e, fs, pr, "camp")
	// The pass-through stage is pushed only where the provider already
	// finalizes: on a bare direct tier a stage would add a closing barrier
	// and move the simulated makespan.
	if pr.NeedsFinalize() {
		st.stage = newPassStage()
		pr.Push(st.stage)
	}
	h := workload.NewHarnessOn(e, fs, p.Ranks, "camp", st.col, pr)
	pat := workload.Sequential
	switch p.Pattern {
	case "strided":
		pat = workload.Strided
	case "random":
		pat = workload.Random
	}
	rep := workload.RunIOR(h, workload.IORConfig{
		Ranks: p.Ranks, BlockSize: p.BlockSize, TransferSize: p.TransferSize,
		SharedFile: true, Pattern: pat, ReadBack: true, Collective: p.Collective,
		StripeCount: p.StripeCount, StripeSize: p.StripeSize,
	})
	m := map[string]float64{
		"write_MBps":  rep.WriteMBps,
		"read_MBps":   rep.ReadMBps,
		"makespan_ms": rep.Makespan.Seconds() * 1e3,
	}
	cs := fs.ClientStatsTotal()
	m["retries"] = float64(cs.Retries)
	m["timed_out_rpcs"] = float64(cs.TimedOutRPCs)
	m["failed_rpcs"] = float64(cs.FailedRPCs)
	for _, bb := range pr.Buffers() {
		bst := bb.Stats()
		m["bb_stalls"] += float64(bst.Stalls)
		m["bb_drain_errors"] += float64(bst.DrainErrors)
		if mb := float64(bst.PeakUsed) / 1e6; mb > m["bb_peak_used_MB"] {
			m["bb_peak_used_MB"] = mb
		}
	}
	if comp != nil {
		cst := comp.StageStats()
		m["compress_ratio"] = cst.Ratio()
		m["compress_cpu_s"] = cst.CompressSeconds + cst.DecompressSeconds
		if cpu := cst.CompressSeconds + cst.DecompressSeconds; cpu > 0 {
			m["compress_MBps"] = float64(cst.LogicalWritten+cst.LogicalRead) / 1e6 / cpu
		}
	}
	st.finish(ls)
	return m, nil
}
