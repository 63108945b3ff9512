package pioeval_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"pioeval/internal/des"
	"pioeval/internal/faults"
	"pioeval/internal/golden"
	"pioeval/internal/iolang"
	"pioeval/internal/pfs"
	"pioeval/internal/trace"
)

// goldenScript is a deliberately mixed workload: striped shared-file
// writes, chunked transfers, per-rank files, and read-back, so the
// transcript exercises the MDS path, OST striping, the I/O-forwarding
// fabric, and queued contention on every device resource.
const goldenScript = `
workload "golden" {
    ranks 4
    loop 3 {
        write "/shared" offset=rank*3MB+iter*1MB size=1MB chunk=256KB
        write "/rank.${rank}" offset=iter*512KB size=512KB
        read "/shared" offset=rank*1MB size=512KB
    }
}
`

// goldenFaults crashes an OST mid-workload and recovers it, with the
// default resilience policy active, so the transcript also pins the
// timeout/retry/backoff event sequences (cancelable timers) of the
// resilient client path.
const goldenFaults = "ostcrash:1@2ms; ostrecover:1@40ms"

// simfsTranscript runs the golden workload on a fixed seed and formats
// every observable of the run — each traced operation with nanosecond
// start/end times, final OST counters, the MDS operation mix, and client
// resilience counters — as one deterministic text transcript.
func simfsTranscript(t *testing.T) string {
	t.Helper()
	wl, err := iolang.Parse(goldenScript)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := faults.ParseCampaign(goldenFaults)
	if err != nil {
		t.Fatal(err)
	}
	e := des.NewEngine(1234)
	cfg := pfs.DefaultConfig()
	cfg.Resilience = pfs.DefaultResilience()
	fs := pfs.New(e, cfg)
	if _, err := faults.Run(e, fs, camp); err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector()
	rep, err := iolang.Run(e, fs, wl, col)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "workload %s ranks %d makespan %d read %d written %d\n",
		rep.Name, rep.Ranks, int64(rep.Makespan), rep.BytesRead, rep.BytesWritten)
	for _, r := range col.Records() {
		fmt.Fprintf(&b, "op %d %s %s %s %d %d %d %d\n",
			r.Rank, r.Layer, r.Op, r.Path, r.Offset, r.Size, int64(r.Start), int64(r.End))
	}
	for _, st := range fs.OSTStats() {
		fmt.Fprintf(&b, "ost %d %s read %d written %d\n", st.ID, st.OSSNode, st.BytesRead, st.BytesWritten)
	}
	md := fs.MDSStats()
	ops := make([]string, 0, len(md.Ops))
	for op := range md.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	fmt.Fprintf(&b, "mds total %d\n", md.TotalOps)
	for _, op := range ops {
		fmt.Fprintf(&b, "mds %s %d\n", op, md.Ops[op])
	}
	cs := fs.ClientStatsTotal()
	fmt.Fprintf(&b, "resilience retries %d timedout %d failed %d degraded %d missing %d\n",
		cs.Retries, cs.TimedOutRPCs, cs.FailedRPCs, cs.DegradedReads, cs.BytesMissing)
	fmt.Fprintf(&b, "end %d pending %d liveprocs %d\n", int64(e.Now()), e.Pending(), e.LiveProcs())
	return b.String()
}

// TestGoldenSimfsTranscript pins same-seed simulation output byte for
// byte. Any change to event ordering, timing, RNG consumption, or the
// engine's dispatch rules shows up here as a diff — this is the
// acceptance gate for DES kernel rewrites: optimizations must reproduce
// this transcript exactly. Regenerate deliberately with
//
//	go test -run TestGoldenSimfsTranscript . -update-golden
func TestGoldenSimfsTranscript(t *testing.T) {
	golden.Check(t, "testdata/simfs_golden.txt", simfsTranscript(t))
}

// TestGoldenTranscriptStableAcrossRuns guards the golden file itself: two
// in-process runs must already agree, so any future divergence against
// testdata is a determinism break, not test flakiness.
func TestGoldenTranscriptStableAcrossRuns(t *testing.T) {
	if simfsTranscript(t) != simfsTranscript(t) {
		t.Fatal("same-seed transcript differs between in-process runs")
	}
}
