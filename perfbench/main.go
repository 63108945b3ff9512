// Command perfbench is the repository benchmark: it runs one workload
// in-process through the public entry points of each layer, measures host
// cost for a fixed number of seconds, checks that every simulated output is
// correct, and prints one JSON result as the last line of standard output.
//
//	perfbench --workload campaign-grid --seed 42 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the same workload runs twice over: once untraced under a CPU profile and
// once rebuilt with observers on every layer's public seam, and the result
// carries the per-layer metrics. The process exits non-zero when any output
// check fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose output digests reference.json records.
const defaultSeed = 42

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the parsed command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string
	// reference overrides the embedded digest table, keyed by size then
	// workload (tests inject a wrong one).
	reference map[string]map[string]string
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run with per-layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&o.size, "size", "full", "workload size: full, or tiny for smoke tests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	o.trace = *traceFlag == 1
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	res, err := execute(o, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d checks failed", res.Failed, res.Attempted)
	}
	return nil
}

// execute builds the workload, prints the host fingerprint, and runs the
// end-to-end or the traced measurement.
func execute(o options, stdout io.Writer) (*result, error) {
	sz, ok := sizes[o.size]
	if !ok {
		return nil, fmt.Errorf("unknown --size %q (want full or tiny)", o.size)
	}
	w, err := newWorkload(o.workload, o.seed, sz)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "host: %s workload=%s seed=%d size=%s trace=%t\n", fingerprint(), o.workload, o.seed, o.size, o.trace)
	ref := o.reference
	if ref == nil {
		ref = embeddedReference().Digests
	}
	var want string
	if o.seed == defaultSeed {
		want = ref[o.size][o.workload]
	}
	if o.trace {
		return measureTraced(w, o.seconds, want, stdout)
	}
	return measure(w, o.seconds, want, stdout)
}

// tally accumulates output checks across units.
type tally struct {
	attempted, failed int
	reported          int
	stdout            io.Writer
}

// check counts a unit's checks, and counts all of them failed when its
// output digest differs from want.
func (t *tally) check(u *unit, what, want string) {
	t.attempted += u.attempted
	t.failed += u.failed
	if want != "" && u.digest != want {
		t.failed += u.attempted - u.failed
		u.problems = append(u.problems, fmt.Sprintf("%s digest %s, want %s", what, u.digest, want))
	}
	for _, p := range u.problems {
		if t.reported < 20 {
			fmt.Fprintf(t.stdout, "check failed: %s\n", p)
		}
		t.reported++
	}
}

func (t *tally) result(metrics map[string]metric) *result {
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

// measure runs the end-to-end measurement: repeated set-ups, one untimed
// warm-up unit that also measures retained heap, then units until the
// measured time is spent. Every figure is the median over units; request
// latency percentiles are taken over each request's median across units.
func measure(w *bench, seconds float64, want string, stdout io.Writer) (*result, error) {
	var setups []float64
	if w.setup != nil {
		// The first sample warms the heap and caches and is not kept; each
		// kept one starts from a collected heap.
		for i := 0; i <= setupSamples; i++ {
			runtime.GC()
			d, err := w.setup()
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			if i > 0 {
				setups = append(setups, d.Seconds())
			}
		}
	}

	t := &tally{stdout: stdout}
	runtime.GC()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	warm, err := w.run()
	if err != nil {
		return nil, err
	}
	// Two cycles: the first only moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	heapPerRank := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(warm.ranks)
	runtime.KeepAlive(warm.pinned)
	warm.pinned = nil
	t.check(warm, "output", want)
	fmt.Fprintf(stdout, "output digest: %s\n", warm.digest)
	if warm.setup > 0 {
		setups = append(setups, warm.setup.Seconds())
	}

	var walls, cpus, allocBytes, allocs, rates []float64
	var lats [][]float64
	var timed float64
	requests := 0
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(walls) == 0 || time.Now().Before(deadline) {
		// Every unit starts from a collected heap, so the garbage of one
		// unit is not charged to the next.
		runtime.GC()
		runtime.ReadMemStats(&m0)
		c0 := cpuTime()
		t0 := time.Now()
		u, err := w.run()
		wall := time.Since(t0).Seconds()
		c1 := cpuTime()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		u.pinned = nil
		t.check(u, "output", warm.digest)
		walls = append(walls, wall)
		timed += wall
		cpus = append(cpus, c1-c0)
		allocBytes = append(allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		if u.setup > 0 {
			setups = append(setups, u.setup.Seconds())
		}
		if len(lats) > 0 && len(u.latencies) != len(lats[0]) {
			return nil, fmt.Errorf("unit served %d requests, the first %d", len(u.latencies), len(lats[0]))
		}
		lat := make([]float64, len(u.latencies))
		for i, d := range u.latencies {
			lat[i] = d.Seconds() * 1e3
		}
		lats = append(lats, lat)
		rates = append(rates, float64(len(lat))/wall)
		requests += len(lat)
	}
	// Every unit sends the same requests in the same order, so request i's
	// latency is its median over the units; that keeps a garbage collection
	// or a host hiccup that lands on a few requests of one unit out of the
	// tail. The percentiles are taken over these per-request medians.
	perReq := make([]float64, len(lats[0]))
	col := make([]float64, len(lats))
	for i := range perReq {
		for k, lat := range lats {
			col[k] = lat[i]
		}
		perReq[i] = median(col)
	}
	sort.Float64s(perReq)
	fmt.Fprintf(stdout, "measured: %d units in %.3fs (unit wall min %.4fs, median %.4fs, max %.4fs), %d requests, %d set-ups\n",
		len(walls), timed, quantile(sorted(walls), 0), median(walls), quantile(sorted(walls), 1), requests, len(setups))
	return t.result(map[string]metric{
		"wall_s":              {median(walls), "s"},
		"setup_s":             {median(setups), "s"},
		"cpu_s":               {median(cpus), "s"},
		"alloc_bytes":         {median(allocBytes), "bytes"},
		"allocs":              {median(allocs), "count"},
		"heap_bytes_per_rank": {heapPerRank, "bytes"},
		"req_per_s":           {median(rates), "1/s"},
		"latency_p50_ms":      {quantile(perReq, 0.50), "ms"},
		"latency_p99_ms":      {quantile(perReq, 0.99), "ms"},
	}), nil
}

// measureTraced runs the per-layer measurement. The first half of the
// measured time runs untraced units under a CPU profile; the second half
// runs the same units rebuilt with observers, whose simulated outputs must
// equal the untraced ones byte for byte.
func measureTraced(w *bench, seconds float64, want string, stdout io.Writer) (*result, error) {
	t := &tally{stdout: stdout}
	half := time.Duration(seconds / 2 * float64(time.Second))

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var untraced []float64
	var base *unit
	deadline := time.Now().Add(half)
	for len(untraced) == 0 || time.Now().Before(deadline) {
		runtime.GC()
		t0 := time.Now()
		u, err := w.run()
		untraced = append(untraced, time.Since(t0).Seconds())
		if err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		u.pinned = nil
		if base == nil {
			base = u
			t.check(u, "output", want)
		} else {
			t.check(u, "output", base.digest)
		}
	}
	pprof.StopCPUProfile()
	cpu, err := cpuShares(&prof)
	if err != nil {
		return nil, err
	}

	var traced []float64
	var first *layerStats
	deadline = time.Now().Add(half)
	for len(traced) == 0 || time.Now().Before(deadline) {
		runtime.GC()
		t0 := time.Now()
		u, ls, err := w.traced()
		traced = append(traced, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
		t.check(u, "traced output", base.simDigest)
		if first == nil {
			first = ls
		}
	}
	for _, e := range first.errs {
		fmt.Fprintf(stdout, "trace error: %s\n", e)
	}
	fmt.Fprintf(stdout, "measured: %d untraced and %d traced units, %d trace errors\n", len(untraced), len(traced), len(first.errs))

	metrics := first.metrics()
	if d := first.vals["des.dispatches"]; d > 0 {
		metrics["des.ns_per_dispatch"] = metric{median(untraced) / d * 1e9, "ns"}
	}
	metrics["trace.overhead_s"] = metric{median(traced) - median(untraced), "s"}
	metrics["trace.errors"] = metric{float64(len(first.errs)), "count"}
	for k, v := range cpu {
		metrics[k] = v
	}
	return t.result(metrics), nil
}

// cpuTime returns the process's user+system CPU seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// fingerprint describes the host every result was measured on.
func fingerprint() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
