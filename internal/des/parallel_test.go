package des

import (
	"reflect"
	"sync"
	"testing"

	"pioeval/internal/leakcheck"
)

func TestParallelGroupValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero lookahead", func() { NewParallelGroup(0, NewEngine(1)) })
	mustPanic("negative lookahead", func() { NewParallelGroup(-5, NewEngine(1)) })
	mustPanic("no engines", func() { NewParallelGroup(10) })
	g := NewParallelGroup(100, NewEngine(1), NewEngine(2))
	mustPanic("short delay", func() { g.Send(0, 1, 50, func() {}) })
	mustPanic("bad index", func() { g.Send(0, 5, 100, func() {}) })
}

// TestParallelGroupSendBelowLinkLookahead checks that every link, in either
// direction and from an engine to itself, carries the group lookahead: a
// Send below it panics and a Send at exactly it is legal.
func TestParallelGroupSendBelowLinkLookahead(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	g := NewParallelGroup(100, NewEngine(1), NewEngine(2))
	mustPanic("below link lookahead", func() { g.Send(0, 1, 99, func() {}) })
	mustPanic("below link lookahead, reverse link", func() { g.Send(1, 0, 99, func() {}) })
	mustPanic("below link lookahead, self-send", func() { g.Send(1, 1, 0, func() {}) })
	g.Send(0, 1, 100, func() {}) // exactly the lookahead is legal
	g.Send(1, 0, 100, func() {})
	g.Send(0, 0, 100, func() {})
}

func TestParallelGroupIndependentPartitions(t *testing.T) {
	e0, e1 := NewEngine(1), NewEngine(2)
	var done0, done1 Time
	e0.Spawn("a", func(p *Proc) {
		p.Wait(250)
		done0 = p.Now()
	})
	e1.Spawn("b", func(p *Proc) {
		p.Wait(999)
		done1 = p.Now()
	})
	g := NewParallelGroup(100, e0, e1)
	end := g.Run(MaxTime)
	if done0 != 250 || done1 != 999 {
		t.Fatalf("done = %v, %v", done0, done1)
	}
	if end < 999 {
		t.Fatalf("group end = %v", end)
	}
}

func TestParallelGroupCrossEvents(t *testing.T) {
	// Ping-pong between two partitions with 100ns link latency
	// (lookahead). Each bounce adds exactly the latency.
	e0, e1 := NewEngine(1), NewEngine(2)
	g := NewParallelGroup(100, e0, e1)
	var arrivals []Time
	var bounce func(side int, hops int)
	bounce = func(side int, hops int) {
		if hops == 0 {
			return
		}
		other := 1 - side
		g.Send(side, other, 100, func() {
			arrivals = append(arrivals, g.Engine(other).Now())
			bounce(other, hops-1)
		})
	}
	e0.After(0, func() { bounce(0, 5) })
	g.Run(MaxTime)
	want := []Time{100, 200, 300, 400, 500}
	if len(arrivals) != len(want) {
		t.Fatalf("arrivals = %v", arrivals)
	}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Fatalf("arrivals = %v, want %v", arrivals, want)
		}
	}
}

func TestParallelMatchesSequentialSemantics(t *testing.T) {
	// The same coupled workload run under the parallel group and computed
	// analytically: partition i processes a job stream and forwards a
	// completion token to partition (i+1), with latency = lookahead.
	const parts = 4
	const lookahead = 1000
	engines := make([]*Engine, parts)
	for i := range engines {
		engines[i] = NewEngine(int64(i))
	}
	g := NewParallelGroup(lookahead, engines...)
	var tokens []Time
	var forward func(from int)
	forward = func(from int) {
		if from == parts-1 {
			return
		}
		g.Send(from, from+1, lookahead, func() {
			// Local processing: 500ns of work, then forward.
			g.Engine(from+1).After(500, func() {
				tokens = append(tokens, g.Engine(from+1).Now())
				forward(from + 1)
			})
		})
	}
	engines[0].After(500, func() {
		tokens = append(tokens, engines[0].Now())
		forward(0)
	})
	g.Run(MaxTime)
	// token i appears at 500 + i*(lookahead+500).
	if len(tokens) != parts {
		t.Fatalf("tokens = %v", tokens)
	}
	for i, at := range tokens {
		want := Time(500 + i*(lookahead+500))
		if at != want {
			t.Fatalf("token %d at %v, want %v", i, at, want)
		}
	}
}

func TestParallelGroupDeterminism(t *testing.T) {
	run := func() []Time {
		engines := make([]*Engine, 3)
		for i := range engines {
			engines[i] = NewEngine(int64(i) + 10)
		}
		g := NewParallelGroup(50, engines...)
		var mu sync.Mutex
		var log []Time
		// Every partition fires messages to every other at jittered times.
		for i := range engines {
			i := i
			for k := 0; k < 5; k++ {
				d := engines[i].RNG().Uniform("jit", 0, 200)
				engines[i].After(d, func() {
					for j := range engines {
						if j != i {
							g.Send(i, j, 50+engines[i].RNG().Uniform("lat", 0, 100), func() {})
						}
					}
					at := engines[i].Now()
					mu.Lock()
					log = append(log, at)
					mu.Unlock()
				})
			}
		}
		g.Run(MaxTime)
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	// The multiset of event times must match across runs (per-partition
	// execution order is deterministic; cross-partition log interleaving
	// within one wall window is not, so compare sorted).
	sortTimes(a)
	sortTimes(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic times: %v vs %v", a, b)
		}
	}
}

func sortTimes(ts []Time) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func TestParallelGroupHorizon(t *testing.T) {
	e0, e1 := NewEngine(1), NewEngine(2)
	fired := 0
	e0.After(10, func() { fired++ })
	e1.After(5000, func() { fired++ })
	g := NewParallelGroup(100, e0, e1)
	g.Run(1000)
	if fired != 1 {
		t.Fatalf("fired = %d before horizon", fired)
	}
	g.Run(MaxTime)
	if fired != 2 {
		t.Fatalf("fired = %d after full run", fired)
	}
}

// TestParallelGroupCrossAtWindowEnd pins down the boundary case: a cross
// event stamped exactly at the destination's window end is delivered in
// the next epoch and runs after same-time local events.
func TestParallelGroupCrossAtWindowEnd(t *testing.T) {
	e0, e1 := NewEngine(1), NewEngine(2)
	g := NewParallelGroup(100, e0, e1)
	var log []string
	e1.After(100, func() {
		if e1.Now() != 100 {
			t.Errorf("local event at %v, want 100", e1.Now())
		}
		log = append(log, "local@100")
	})
	e0.After(0, func() {
		// at = 0 + 100 = exactly shard 1's first window end.
		g.Send(0, 1, 100, func() {
			if e1.Now() != 100 {
				t.Errorf("cross event at %v, want 100", e1.Now())
			}
			log = append(log, "cross@100")
		})
	})
	g.Run(MaxTime)
	if want := []string{"local@100", "cross@100"}; !reflect.DeepEqual(log, want) {
		t.Errorf("log = %v, want %v", log, want)
	}
}

// TestParallelGroupHorizonMidWindow clips the horizon inside a lookahead
// window: events up to the horizon fire, later ones wait for the next Run.
func TestParallelGroupHorizonMidWindow(t *testing.T) {
	e0, e1 := NewEngine(1), NewEngine(2)
	g := NewParallelGroup(100, e0, e1)
	var fired []Time
	e0.After(50, func() { fired = append(fired, e0.Now()) })
	e1.After(90, func() { fired = append(fired, e1.Now()) })
	// The natural window would be [50, 150]; the horizon cuts it at 80.
	g.Run(80)
	if !reflect.DeepEqual(fired, []Time{50}) {
		t.Fatalf("fired = %v before horizon 80", fired)
	}
	g.Run(MaxTime)
	if !reflect.DeepEqual(fired, []Time{50, 90}) {
		t.Fatalf("fired = %v after full run", fired)
	}
}

// TestParallelGroupSingleEngine exercises a one-shard group, including
// self-sends through the pending-list path.
func TestParallelGroupSingleEngine(t *testing.T) {
	e := NewEngine(1)
	g := NewParallelGroup(10, e)
	var arrivals []Time
	hops := 0
	var hop func()
	hop = func() {
		arrivals = append(arrivals, e.Now())
		if hops++; hops < 3 {
			g.Send(0, 0, 10, hop)
		}
	}
	e.After(5, func() { g.Send(0, 0, 10, hop) })
	end := g.Run(MaxTime)
	if !reflect.DeepEqual(arrivals, []Time{15, 25, 35}) {
		t.Fatalf("arrivals = %v", arrivals)
	}
	// The clock parks at the last window end (35 + lookahead).
	if end != 45 {
		t.Fatalf("end = %v, want 45", end)
	}
}

// TestParallelGroupUniformWindowChain runs a feed-forward chain 0→1→2
// whose second hop is far slower than the group lookahead, next to dense
// local work on shard 2, and checks the arrival times.
func TestParallelGroupUniformWindowChain(t *testing.T) {
	engines := []*Engine{NewEngine(1), NewEngine(2), NewEngine(3)}
	g := NewParallelGroup(10, engines...)
	var local int
	var tick func()
	tick = func() {
		if local++; local < 50 {
			engines[2].After(7, tick)
		}
	}
	engines[2].After(0, tick)
	var arrivals []Time
	for i := 0; i < 4; i++ {
		engines[0].After(Time(i*5), func() {
			g.Send(0, 1, 10, func() {
				g.Send(1, 2, 1000, func() {
					arrivals = append(arrivals, engines[2].Now())
				})
			})
		})
	}
	g.Run(MaxTime)
	if local != 50 {
		t.Fatalf("local ticks = %d", local)
	}
	// send i at t=5i arrives at shard 1 at 5i+10, at shard 2 at 5i+1010.
	if want := []Time{1010, 1015, 1020, 1025}; !reflect.DeepEqual(arrivals, want) {
		t.Fatalf("arrivals = %v, want %v", arrivals, want)
	}
}

// TestParallelGroupPanicPropagates checks that a panic raised inside a
// window (here: an in-handler Send below the group lookahead) reaches the
// Run caller.
func TestParallelGroupPanicPropagates(t *testing.T) {
	e0, e1 := NewEngine(1), NewEngine(2)
	g := NewParallelGroup(100, e0, e1)
	e1.After(5, func() { g.Send(1, 0, 10, func() {}) })
	defer func() {
		if recover() == nil {
			t.Error("in-window Send below lookahead should panic out of Run")
		}
	}()
	g.Run(MaxTime)
}

// TestParallelGroupMixedFormsSharded drives every shard with one goroutine
// proc and one continuation proc, both emitting cross-shard events, and
// checks every shard's arrival log and that no proc is left behind.
func TestParallelGroupMixedFormsSharded(t *testing.T) {
	leakcheck.Check(t)
	const shards = 3
	engines := make([]*Engine, shards)
	for i := range engines {
		engines[i] = NewEngine(int64(i) + 5)
	}
	g := NewParallelGroup(50, engines...)
	logs := make([][]Time, shards)
	recv := make([]func(), shards)
	for i := range recv {
		i := i
		recv[i] = func() { logs[i] = append(logs[i], engines[i].Now()) }
	}
	for i := range engines {
		i := i
		next := (i + 1) % shards
		engines[i].Spawn("goro", func(p *Proc) {
			for k := 0; k < 4; k++ {
				p.Wait(30)
				g.Send(i, next, 50+Time(k), recv[next])
			}
		})
		engines[i].SpawnEvent("cont", func(ep *EventProc) {
			k := 0
			var step StepFunc
			step = func() {
				if k++; k > 4 {
					return
				}
				g.Send(i, next, 75, recv[next])
				ep.Wait(45, step)
			}
			ep.Wait(45, step)
		})
	}
	g.Run(MaxTime)
	// The goroutine proc sends at 30(k+1) with delay 50+k (80, 111, 142,
	// 173); the continuation proc at 45k with delay 75 (120, 165, 210, 255).
	want := []Time{80, 111, 120, 142, 165, 173, 210, 255}
	for i, e := range engines {
		if e.LiveProcs() != 0 {
			t.Fatalf("shard %d leaked %d procs", i, e.LiveProcs())
		}
		if !reflect.DeepEqual(logs[i], want) {
			t.Errorf("shard %d log = %v, want %v", i, logs[i], want)
		}
	}
}

func TestAdvanceTo(t *testing.T) {
	e := NewEngine(1)
	e.AdvanceTo(100)
	if e.Now() != 100 {
		t.Fatalf("now = %v", e.Now())
	}
	e.AdvanceTo(50) // backwards: no-op
	if e.Now() != 100 {
		t.Fatal("AdvanceTo went backwards")
	}
	e.After(10, func() {})
	defer func() {
		if recover() == nil {
			t.Error("AdvanceTo past a pending event should panic")
		}
	}()
	e.AdvanceTo(500)
}
