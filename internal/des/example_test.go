package des_test

import (
	"fmt"

	"pioeval/internal/des"
)

// ExampleEngine shows the process-oriented style every simulator in this
// repository is built from: spawned processes block on Wait while the
// engine advances virtual time deterministically between events.
func ExampleEngine() {
	e := des.NewEngine(1)
	e.Spawn("writer", func(p *des.Proc) {
		p.Wait(10 * des.Millisecond)
		fmt.Printf("%v writer done\n", p.Now())
	})
	e.Spawn("reader", func(p *des.Proc) {
		p.Wait(4 * des.Millisecond)
		fmt.Printf("%v reader done\n", p.Now())
	})
	end := e.Run(des.MaxTime)
	fmt.Printf("makespan %v\n", end)
	// Output:
	// 4ms reader done
	// 10ms writer done
	// makespan 10ms
}

// ExampleEngine_After demonstrates callback-style scheduling, the style
// the fault injector uses to fire campaign events at absolute times.
func ExampleEngine_After() {
	e := des.NewEngine(1)
	e.After(2*des.Millisecond, func() { fmt.Printf("%v first\n", e.Now()) })
	e.After(5*des.Millisecond, func() { fmt.Printf("%v second\n", e.Now()) })
	e.Run(des.MaxTime)
	// Output:
	// 2ms first
	// 5ms second
}

// ExampleEngine_SpawnEvent shows the continuation (goroutine-free)
// execution form: each blocking point passes an explicit continuation, a
// des.Step (here a des.StepFunc; a state machine is usually its own), and
// a step that returns without arming one terminates the process.
// Both forms coexist on one engine and share signals, queues and
// resources; a rank in this form costs one small struct plus a pooled
// event slot, which is what makes million-rank simulations affordable.
func ExampleEngine_SpawnEvent() {
	e := des.NewEngine(1)
	var ready des.Signal
	e.SpawnEvent("producer", func(ep *des.EventProc) {
		ep.Wait(3*des.Millisecond, des.StepFunc(ready.Fire))
	})
	e.SpawnEvent("consumer", func(ep *des.EventProc) {
		ready.WaitE(ep, des.StepFunc(func() {
			fmt.Printf("%v ready\n", ep.Now())
		}))
	})
	end := e.Run(des.MaxTime)
	fmt.Printf("makespan %v\n", end)
	// Output:
	// 3ms ready
	// makespan 3ms
}

// ExampleStreamRNG shows named random streams: each stream's sequence
// depends only on the root seed and the stream name, so adding a new
// stream never perturbs existing ones.
func ExampleStreamRNG() {
	a := des.NewStreamRNG(7)
	b := des.NewStreamRNG(7)
	fmt.Println(a.Stream("ost0").Int63n(100) == b.Stream("ost0").Int63n(100))
	// Output:
	// true
}
