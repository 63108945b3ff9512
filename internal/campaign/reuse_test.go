package campaign

import (
	"context"
	"reflect"
	"testing"

	"pioeval/internal/pfs"
	"pioeval/internal/stack"
)

// freshMetrics runs every job of spec on a new stack, as every job ran
// before stacks were reused, and returns the metrics by run index.
func freshMetrics(spec Spec) []map[string]float64 {
	spec = spec.withDefaults()
	points := spec.Expand()
	out := make([]map[string]float64, len(points)*spec.Reps)
	for i := range out {
		p := points[i/spec.Reps]
		out[i] = run(spec, p, newStack(p, RunSeed(spec.Seed, i)))
	}
	return out
}

// TestClusterReuseMatchesFresh: a campaign whose repetitions share a
// reset cluster gives every run the metrics a new cluster gives it, for
// both workloads, every tier, compression and a fault
// campaign, at one worker and at several.
func TestClusterReuseMatchesFresh(t *testing.T) {
	specs := []Spec{{
		Name: "ior", Seed: 5, Reps: 3,
		Ranks:         []int{2},
		Devices:       []string{"ssd"},
		BlockSizes:    []int64{1 << 20},
		TransferSizes: []int64{256 << 10},
		Patterns:      []string{"random"},
		Tiers:         []string{"direct", "bb", "nodelocal"},
		Compress:      []string{"none", "lz"},
		Faults:        []string{"", "ostcrash:1@1ms; ostrecover:1@30ms; transient:0.05@0s"},
	}, {
		Name: "ckpt", Workload: WorkloadCheckpoint, Seed: 6, Reps: 3, Steps: 2,
		Ranks:         []int{2},
		Devices:       []string{"hdd"},
		BlockSizes:    []int64{1 << 20},
		TransferSizes: []int64{512 << 10},
		Tiers:         []string{"direct", "bb"},
		Faults:        []string{"", "slowdown:0x4@0s; linkdegrade:2@2ms; mdsdown@5ms; mdsup@40ms"},
	}}
	for _, spec := range specs {
		want := freshMetrics(spec)
		for _, workers := range []int{1, 3} {
			rep, err := Run(spec, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Errors) > 0 {
				t.Fatalf("%s workers=%d: %+v", spec.Name, workers, rep.Errors)
			}
			for i, r := range rep.Runs {
				if !reflect.DeepEqual(r.Metrics, want[i]) {
					t.Errorf("%s workers=%d run %d (point %d rep %d):\n reused %v\n fresh  %v", spec.Name, workers, i, r.Point, r.Rep, r.Metrics, want[i])
				}
			}
		}
	}
}

// TestPoisonedRepDropsCluster: a repetition that panics mid-simulation
// leaves its cluster with live processes and busy servers; the cache must
// never lend that cluster again, and the point's healthy repetitions
// after it must give the metrics a new cluster gives.
func TestPoisonedRepDropsCluster(t *testing.T) {
	spec := smallSpec().withDefaults()
	spec.Reps = 4
	points := spec.Expand()
	want := freshMetrics(spec)
	old := simulateFn
	t.Cleanup(func() { simulateFn = old })
	for _, workers := range []int{1, 2} {
		poisonSeed := RunSeed(spec.Seed, 1) // point 0, rep 1
		var poisoned *stack.Stack
		simulateFn = func(s Spec, p Point, seed int64, c *clusterCache) map[string]float64 {
			c.mu.Lock()
			for _, is := range c.idle {
				if is.s == poisoned {
					t.Errorf("workers=%d: the poisoned rep's cluster is idle again", workers)
				}
			}
			c.mu.Unlock()
			if seed != poisonSeed {
				return simulate(s, p, seed, c)
			}
			// simulate, with a client operation that panics halfway through
			// the run.
			poisoned = c.take(p, seed)
			ops := 0
			poisoned.FS.SetOpObserver(func(pfs.OpEvent) {
				if ops++; ops == 3 {
					panic("poisoned rep")
				}
			})
			m := run(s, p, poisoned)
			c.put(p, poisoned)
			return m
		}
		rep, err := RunContext(context.Background(), spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Errors) != 1 || rep.Errors[0].Run != 1 {
			t.Fatalf("workers=%d: errors %+v, want one for run 1", workers, rep.Errors)
		}
		if poisoned.E.LiveProcs() == 0 {
			t.Fatalf("workers=%d: the poisoned rep left no live process; it tests nothing", workers)
		}
		for i, r := range rep.Runs {
			if i != 1 && !reflect.DeepEqual(r.Metrics, want[i]) {
				t.Errorf("workers=%d run %d (%s rep %d):\n got  %v\n want %v", workers, i, points[i/spec.Reps].Label(), r.Rep, r.Metrics, want[i])
			}
		}
	}
}

// TestReusedJobAllocs pins the allocations of one repetition of a
// two-rank IOR point (HDD, 4 MiB blocks in 256 KiB sequential transfers)
// on a reset cluster. The engine, file system, fabric, devices and their
// warm free lists are reused; what a job still allocates is its own MPI
// world, clients and their fabric nodes, ranks and their procs, the
// storage provider and the metrics.
func TestReusedJobAllocs(t *testing.T) {
	spec := smallSpec().withDefaults()
	p := spec.Expand()[0]
	fresh := testing.AllocsPerRun(20, func() { run(spec, p, newStack(p, 1)) })
	c := &clusterCache{max: 1}
	simulate(spec, p, 1, c)
	reused := testing.AllocsPerRun(20, func() { simulate(spec, p, 1, c) })
	t.Logf("job allocations: %v on a new cluster, %v on a reset one", fresh, reused)
	if reused > reusedJobAllocs {
		t.Errorf("a job on a reset cluster allocates %v objects, want <= %d", reused, reusedJobAllocs)
	}
}

// reusedJobAllocs is TestReusedJobAllocs's bound: 72 allocations
// measured with coroutine procs (go1.24; 196 on a new cluster), 51 with
// channel procs (175), plus a small margin.
const reusedJobAllocs = 76
