package campaign

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pioeval/internal/des"
	"pioeval/internal/leakcheck"
)

// swapSimulate installs a fake per-run simulation for the test's duration.
func swapSimulate(t *testing.T, fn func(Spec, Point, int64) map[string]float64) {
	t.Helper()
	old := simulateFn
	simulateFn = func(s Spec, p Point, seed int64, _ *clusterCache) map[string]float64 { return fn(s, p, seed) }
	t.Cleanup(func() { simulateFn = old })
}

// fourPointSpec expands to 4 points x 2 reps = 8 runs.
func fourPointSpec() Spec {
	return Spec{
		Name: "ctx", Seed: 7, Reps: 2,
		Ranks:   []int{1, 2},
		Devices: []string{"hdd", "ssd"},
	}
}

// TestRunContextCancelledMidGrid: cancelling mid-grid returns a partial
// Report with the Cancelled marker, prefilled run headers, and nil Metrics
// on the runs that never executed — no panic, no hang.
func TestRunContextCancelledMidGrid(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	swapSimulate(t, func(Spec, Point, int64) map[string]float64 {
		if ran.Add(1) == 3 {
			cancel()
		}
		return map[string]float64{"m": 1}
	})
	rep, err := RunContext(ctx, fourPointSpec(), Options{Workers: 1})
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if !rep.Cancelled {
		t.Fatal("report not marked Cancelled")
	}
	if got := rep.CompletedRuns(); got != 3 {
		t.Fatalf("CompletedRuns = %d, want 3", got)
	}
	if len(rep.Runs) != 8 {
		t.Fatalf("partial report lists %d runs, want all 8 planned", len(rep.Runs))
	}
	for i, r := range rep.Runs {
		if r.Seed != RunSeed(rep.Seed, i) {
			t.Fatalf("run %d header seed not prefilled", i)
		}
	}
	// The marker must survive serialization for clients of a partial report.
	var buf strings.Builder
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round struct {
		Cancelled bool `json:"cancelled"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &round); err != nil || !round.Cancelled {
		t.Fatalf("cancelled marker lost in JSON round trip (err=%v)", err)
	}
}

// TestRunContextCancelledParallel: same contract on the parallel pool
// path — in-flight runs finish, the rest never start, and the call
// returns promptly.
func TestRunContextCancelledParallel(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	swapSimulate(t, func(Spec, Point, int64) map[string]float64 {
		if ran.Add(1) == 2 {
			cancel()
		}
		return map[string]float64{"m": 1}
	})
	done := make(chan *Report, 1)
	go func() {
		rep, err := RunContext(ctx, fourPointSpec(), Options{Workers: 4})
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	select {
	case rep := <-done:
		if !rep.Cancelled {
			t.Fatal("report not marked Cancelled")
		}
		if c := rep.CompletedRuns(); c >= 8 {
			t.Fatalf("cancelled campaign completed all %d runs", c)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunContext hung after cancellation")
	}
}

// TestRunPoisonedPointIsolated: one grid point that panics becomes a
// typed JobError; every other run still completes and aggregates.
func TestRunPoisonedPointIsolated(t *testing.T) {
	swapSimulate(t, func(s Spec, p Point, seed int64) map[string]float64 {
		if p.Device == "ssd" && p.Ranks == 2 { // poison one grid point
			panic("poisoned grid point")
		}
		return map[string]float64{"m": float64(p.Ranks)}
	})
	for _, workers := range []int{1, 4} {
		rep, err := RunContext(context.Background(), fourPointSpec(), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Cancelled {
			t.Fatalf("workers=%d: poisoned run marked the report cancelled", workers)
		}
		if len(rep.Errors) == 0 {
			t.Fatalf("workers=%d: no JobError recorded for the poisoned point", workers)
		}
		for _, je := range rep.Errors {
			if !strings.Contains(je.Msg, "poisoned grid point") {
				t.Fatalf("workers=%d: JobError message %q", workers, je.Msg)
			}
			if rep.Runs[je.Run].Metrics != nil {
				t.Fatalf("workers=%d: poisoned run %d has metrics", workers, je.Run)
			}
			if rep.Runs[je.Run].Point != je.Point || rep.Runs[je.Run].Rep != je.Rep {
				t.Fatalf("workers=%d: JobError coordinates disagree with run header", workers)
			}
		}
		if got := rep.CompletedRuns() + len(rep.Errors); got != len(rep.Runs) {
			t.Fatalf("workers=%d: completed(%d) + errors(%d) != runs(%d)",
				workers, rep.CompletedRuns(), len(rep.Errors), len(rep.Runs))
		}
	}
}

// TestPoolPanicOrderStable: panics surface sorted by index regardless of
// worker scheduling.
func TestPoolPanicOrderStable(t *testing.T) {
	leakcheck.Check(t)
	res := Pool(16, Options{Workers: 8}, func(i int) {
		if i%3 == 0 {
			panic(i)
		}
	})
	if res.Err != nil {
		t.Fatalf("unexpected pool error: %v", res.Err)
	}
	if len(res.Panicked) != 6 {
		t.Fatalf("got %d panics, want 6", len(res.Panicked))
	}
	for j := 1; j < len(res.Panicked); j++ {
		if res.Panicked[j-1].Index >= res.Panicked[j].Index {
			t.Fatal("panics not sorted by index")
		}
	}
	if res.Completed != 10 {
		t.Fatalf("Completed = %d, want 10", res.Completed)
	}
}

// TestPoolPanicFromSimCallback: a job whose simulation panics in an event
// callback, dispatched while a blocked goroutine proc holds the event loop,
// is recorded as a PoolPanic with the callback's value; the other jobs
// complete and the test binary survives.
func TestPoolPanicFromSimCallback(t *testing.T) {
	res := Pool(4, Options{Workers: 2}, func(i int) {
		e := des.NewEngine(int64(i))
		e.Spawn("rank", func(p *des.Proc) { p.Wait(10) })
		if i == 2 {
			e.After(5, func() { panic("poisoned callback") })
		}
		e.Run(des.MaxTime)
	})
	if len(res.Panicked) != 1 || res.Panicked[0].Index != 2 || res.Panicked[0].Value != "poisoned callback" {
		t.Fatalf("Panicked = %+v, want one entry for index 2 with the callback's value", res.Panicked)
	}
	if res.Completed != 3 {
		t.Fatalf("Completed = %d, want 3", res.Completed)
	}
}

// TestPoolContextPreCancelled: an already-dead context runs nothing.
func TestPoolContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	res := PoolContext(ctx, 100, Options{Workers: 4}, func(int) { ran.Add(1) })
	if res.Err == nil {
		t.Fatal("pre-cancelled pool reported no error")
	}
	// The unbuffered feed channel admits at most one index per worker
	// before the workers observe cancellation.
	if n := ran.Load(); n > 4 {
		t.Fatalf("pre-cancelled pool ran %d calls", n)
	}
}

// TestPoolWaitsForInflight: cancellation never abandons a running fn —
// PoolContext returns only after in-flight calls finish.
func TestPoolWaitsForInflight(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	inflight, maxSeen := 0, 0
	res := make(chan PoolResult, 1)
	block := make(chan struct{})
	go func() {
		res <- PoolContext(ctx, 32, Options{Workers: 4}, func(i int) {
			mu.Lock()
			inflight++
			if inflight > maxSeen {
				maxSeen = inflight
			}
			mu.Unlock()
			if i == 0 {
				cancel()
				<-block // hold one call in flight across the cancellation
			}
			mu.Lock()
			inflight--
			mu.Unlock()
		})
	}()
	select {
	case <-res:
		t.Fatal("PoolContext returned while a call was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(block)
	r := <-res
	if r.Err == nil {
		t.Fatal("cancelled pool reported no error")
	}
	mu.Lock()
	defer mu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d calls still in flight after PoolContext returned", inflight)
	}
}
