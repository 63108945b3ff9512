package campaign

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"pioeval/internal/leakcheck"
	"pioeval/internal/pfs"
	"pioeval/internal/stack"
)

// newLoan lends a new stack of point p seeded with seed.
func newLoan(p Point, seed int64) *stack.Loan {
	ln, err := stack.NewLender[Point](1).Take(p, stackConfig(p, seed))
	if err != nil {
		panic(err)
	}
	return ln
}

// freshMetrics runs every job of spec on a new stack, as every job ran
// before stacks were reused, and returns the metrics by run index.
func freshMetrics(spec Spec) []map[string]float64 {
	spec = spec.withDefaults()
	points := spec.Expand()
	out := make([]map[string]float64, len(points)*spec.Reps)
	for i := range out {
		p := points[i/spec.Reps]
		out[i] = run(spec, p, newLoan(p, RunSeed(spec.Seed, i)))
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

// TestRunContextLeavesNoGoroutine: no rank proc or burst-buffer drain
// worker of any job outlives RunContext, whose lender closes the engines
// of the stacks it kept, ending the coroutines their kept procs park
// between jobs; at one worker and at two.
func TestRunContextLeavesNoGoroutine(t *testing.T) {
	leakcheck.Check(t)
	spec := smallSpec()
	spec.Tiers = []string{"direct", "bb"}
	spec.Compress = []string{"none", "lz"}
	for _, workers := range []int{1, 2} {
		rep, err := RunContext(context.Background(), spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Errors) > 0 {
			t.Fatalf("workers=%d: %+v", workers, rep.Errors)
		}
	}
}

// TestPoisonedRepDropsCluster: a repetition that panics mid-simulation
// leaves its stack with live processes and busy servers; the lender must
// never lend that stack again, and the point's healthy repetitions after
// it must give the metrics a new stack gives. With coroutine procs the
// lender's Close abandons the stack (des.Engine.Abandon), unwinding its
// suspended ranks, so no goroutine outlives the run; channel procs have
// no way to end a suspended proc.
func TestPoisonedRepDropsCluster(t *testing.T) {
	if coroutineProcs {
		leakcheck.Check(t)
	}
	spec := smallSpec().withDefaults()
	spec.Reps = 4
	points := spec.Expand()
	want := freshMetrics(spec)
	old := simulateFn
	t.Cleanup(func() { simulateFn = old })
	for _, workers := range []int{1, 2} {
		poisonSeed := RunSeed(spec.Seed, 1) // point 0, rep 1
		var (
			mu       sync.Mutex
			poisoned *stack.Loan
		)
		// simulate, with a client operation that panics halfway through
		// the poisoned rep's run.
		simulateFn = func(s Spec, p Point, seed int64, stacks *stack.Lender[Point]) map[string]float64 {
			ln, err := stacks.Take(p, stackConfig(p, seed))
			if err != nil {
				panic(err)
			}
			mu.Lock()
			if ln == poisoned {
				t.Errorf("workers=%d: the poisoned rep's stack is lent again", workers)
			}
			if seed == poisonSeed {
				poisoned = ln
				ops := 0
				ln.FS.SetOpObserver(func(pfs.OpEvent) {
					if ops++; ops == 3 {
						panic("poisoned rep")
					}
				})
			}
			mu.Unlock()
			m := run(s, p, ln)
			stacks.Put(p, ln)
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
// on a reset stack. The engine, file system, fabric, devices and their
// warm free lists are reused, and so are the harness's MPI world, ranks
// and their procs, POSIX environments and descriptor state, the clients
// and their fabric nodes, and the storage provider with its targets;
// with coroutine procs a rank also keeps its coroutine, parked between
// jobs. What a job still allocates is its open files, inodes and MPI-IO
// state, and the metrics, and with channel procs its ranks' goroutines.
func TestReusedJobAllocs(t *testing.T) {
	spec := smallSpec().withDefaults()
	p := spec.Expand()[0]
	fresh := testing.AllocsPerRun(20, func() { run(spec, p, newLoan(p, 1)) })
	stacks := stack.NewLender[Point](1)
	t.Cleanup(stacks.Close)
	simulate(spec, p, 1, stacks)
	reused := testing.AllocsPerRun(20, func() { simulate(spec, p, 1, stacks) })
	t.Logf("job allocations: %v on a new stack, %v on a reset one", fresh, reused)
	if reused > reusedJobAllocs {
		t.Errorf("a job on a reset stack allocates %v objects, want <= %d", reused, reusedJobAllocs)
	}
}
