package des

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{500, "500ns"},
		{2 * Microsecond, "2us"},
		{3 * Millisecond, "3ms"},
		{Second, "1s"},
		{90 * Second, "90s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v, want 1.5s", got)
	}
	if got := Time(250 * Millisecond).Seconds(); got != 0.25 {
		t.Errorf("Seconds() = %v, want 0.25", got)
	}
}

func TestEngineAfterOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.After(30, func() { order = append(order, 3) })
	e.After(10, func() { order = append(order, 1) })
	e.After(20, func() { order = append(order, 2) })
	e.After(10, func() { order = append(order, 11) }) // same time: FIFO
	end := e.Run(MaxTime)
	if end != 30 {
		t.Fatalf("final time = %v, want 30", end)
	}
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.After(10, func() { fired++ })
	e.After(100, func() { fired++ })
	e.Run(50)
	if fired != 1 {
		t.Fatalf("fired = %d events before horizon, want 1", fired)
	}
	if e.Now() != 50 {
		t.Fatalf("now = %v, want horizon 50", e.Now())
	}
	e.Run(MaxTime)
	if fired != 2 {
		t.Fatalf("fired = %d after second run, want 2", fired)
	}
}

func TestProcWait(t *testing.T) {
	e := NewEngine(1)
	var ts []Time
	e.Spawn("w", func(p *Proc) {
		ts = append(ts, p.Now())
		p.Wait(5 * Millisecond)
		ts = append(ts, p.Now())
		p.Wait(0)
		ts = append(ts, p.Now())
	})
	e.Run(MaxTime)
	want := []Time{0, 5 * Millisecond, 5 * Millisecond}
	if len(ts) != len(want) {
		t.Fatalf("ts = %v, want %v", ts, want)
	}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("ts[%d] = %v, want %v", i, ts[i], want[i])
		}
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine(1)
	var log []string
	e.Spawn("a", func(p *Proc) {
		p.Wait(10)
		log = append(log, "a10")
		p.Wait(20)
		log = append(log, "a30")
	})
	e.Spawn("b", func(p *Proc) {
		p.Wait(20)
		log = append(log, "b20")
	})
	e.Run(MaxTime)
	want := []string{"a10", "b20", "a30"}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

// hold acquires r, holds it for service time d, then releases it: the
// queueing-server pattern the I/O layers write out.
func hold(p *Proc, r *Resource, d Time) {
	r.Acquire(p)
	p.Wait(d)
	r.Release()
}

// holdE is hold in continuation form; it runs k after the release.
func holdE(ep *EventProc, r *Resource, d Time, k Step) {
	r.AcquireE(ep, StepFunc(func() {
		ep.Wait(d, StepFunc(func() {
			r.Release()
			k.Step()
		}))
	}))
}

func TestResourceQueueing(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Spawn("u", func(p *Proc) {
			hold(p, r, 10)
			finish = append(finish, p.Now())
		})
	}
	e.Run(MaxTime)
	want := []Time{10, 20, 30}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
	if r.PeakQueueLen() != 2 {
		t.Errorf("PeakQueueLen = %d, want 2", r.PeakQueueLen())
	}
}

func TestResourceCapacityParallelism(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "cpu", 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		e.Spawn("u", func(p *Proc) {
			hold(p, r, 10)
			finish = append(finish, p.Now())
		})
	}
	e.Run(MaxTime)
	// Two at a time: finish at 10,10,20,20.
	want := []Time{10, 10, 20, 20}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "link", 1)
	e.Spawn("u", func(p *Proc) {
		hold(p, r, 50)
		p.Wait(50)
	})
	e.Run(MaxTime)
	if u := r.Utilization(); u < 0.49 || u > 0.51 {
		t.Errorf("Utilization = %v, want ~0.5", u)
	}
}

func TestQueuePutGet(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, "q")
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(10)
			q.Put(i)
		}
	})
	e.Run(MaxTime)
	for i := 0; i < 3; i++ {
		if got[i] != i {
			t.Fatalf("got = %v, want [0 1 2]", got)
		}
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine(1)
	s := new(Signal)
	woke := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			s.Wait(p)
			woke++
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Wait(100)
		if n := s.waiters.len(); n != 3 {
			t.Errorf("%d waiters, want 3", n)
		}
		s.Fire()
	})
	e.Run(MaxTime)
	if woke != 3 {
		t.Fatalf("woke = %d, want 3", woke)
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine(1)
	wg := new(WaitGroup)
	wg.Add(3)
	var doneAt Time
	e.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := Time(i * 10)
		e.Spawn("worker", func(p *Proc) {
			p.Wait(d)
			wg.Done()
		})
	}
	e.Run(MaxTime)
	if doneAt != 30 {
		t.Fatalf("waiter released at %v, want 30", doneAt)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewStreamRNG(42)
	b := NewStreamRNG(42)
	for i := 0; i < 100; i++ {
		if a.Stream("x").Int63() != b.Stream("x").Int63() {
			t.Fatal("same seed+stream should give identical sequences")
		}
	}
	// Different streams must diverge.
	c := NewStreamRNG(42)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Stream("x").Int63() == c.Stream("y").Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams x and y coincide %d/100 times", same)
	}
}

func TestRNGDistributions(t *testing.T) {
	r := NewStreamRNG(7)
	var sum Time
	n := 20000
	for i := 0; i < n; i++ {
		sum += r.Exponential("e", 100*Microsecond)
	}
	mean := float64(sum) / float64(n)
	if mean < 95000 || mean > 105000 {
		t.Errorf("exponential mean = %v ns, want ~100000", mean)
	}
	for i := 0; i < 1000; i++ {
		u := r.Uniform("u", 10, 20)
		if u < 10 || u >= 20 {
			t.Fatalf("Uniform out of range: %v", u)
		}
	}
	if got := r.Uniform("u", 20, 10); got != 20 {
		t.Errorf("Uniform with hi<=lo = %v, want lo", got)
	}
}

// Property: for any set of non-negative delays, processes finish exactly at
// their delay, and engine time ends at the max.
func TestPropWaitFinishTimes(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		if len(delays) > 64 {
			delays = delays[:64]
		}
		e := NewEngine(3)
		results := make([]Time, len(delays))
		var max Time
		for i, d := range delays {
			i, d := i, Time(d)
			if d > max {
				max = d
			}
			e.Spawn("p", func(p *Proc) {
				p.Wait(d)
				results[i] = p.Now()
			})
		}
		end := e.Run(MaxTime)
		if end != max {
			return false
		}
		for i, d := range delays {
			if results[i] != Time(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: a capacity-1 resource serializes; total makespan for k users of
// service s equals k*s.
func TestPropResourceSerialization(t *testing.T) {
	f := func(k uint8, s uint16) bool {
		users := int(k%16) + 1
		svc := Time(s%1000) + 1
		e := NewEngine(9)
		r := NewResource(e, "r", 1)
		for i := 0; i < users; i++ {
			e.Spawn("u", func(p *Proc) { hold(p, r, svc) })
		}
		end := e.Run(MaxTime)
		return end == Time(users)*svc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative Wait should panic")
			}
		}()
		p.Wait(-1)
	})
	// The panic is recovered inside the proc; engine continues.
	e.Run(MaxTime)
}

func TestEngineDeterminismAcrossRuns(t *testing.T) {
	run := func() []Time {
		e := NewEngine(5)
		r := NewResource(e, "d", 2)
		var finishes []Time
		for i := 0; i < 10; i++ {
			e.Spawn("u", func(p *Proc) {
				d := e.RNG().Exponential("svc", 50*Microsecond)
				p.Wait(e.RNG().Uniform("arr", 0, 100*Microsecond))
				hold(p, r, d)
				finishes = append(finishes, p.Now())
			})
		}
		e.Run(MaxTime)
		return finishes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic: %v vs %v", a, b)
		}
	}
}

// TestAdvanceToPastIsNoOp pins the documented contract: moving the clock
// to the current time or into the past is an explicit no-op, never a
// panic and never a backward move.
func TestAdvanceToPastIsNoOp(t *testing.T) {
	e := NewEngine(1)
	e.After(100, func() {})
	e.Run(MaxTime)
	e.AdvanceTo(50) // past: no-op
	if e.Now() != 100 {
		t.Fatalf("AdvanceTo(past) moved clock to %v, want 100", e.Now())
	}
	e.AdvanceTo(100) // present: no-op
	if e.Now() != 100 {
		t.Fatalf("AdvanceTo(now) moved clock to %v, want 100", e.Now())
	}
	e.AdvanceTo(200)
	if e.Now() != 200 {
		t.Fatalf("AdvanceTo(200) = %v", e.Now())
	}
}

// TestAdvanceToSkipEventPanics pins the other branch of the contract: the
// clock may not jump over a pending event.
func TestAdvanceToSkipEventPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(100, func() {})
	defer func() {
		if recover() == nil {
			t.Error("AdvanceTo past a pending event should panic")
		}
	}()
	e.AdvanceTo(150)
}

// TestQueueNoWaiterRetention is the regression test for the head-slice
// leak: after getters are served, neither the item ring nor the getter
// FIFO may keep delivered messages or served processes reachable.
func TestQueueNoWaiterRetention(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[*int](e, "q")
	served := 0
	for i := 0; i < 5; i++ {
		e.Spawn("c", func(p *Proc) {
			if q.Get(p) != nil {
				served++
			}
		})
	}
	e.Spawn("prod", func(p *Proc) {
		p.Wait(10)
		for i := 0; i < 5; i++ {
			q.Put(new(int))
		}
	})
	e.Run(MaxTime)
	if served != 5 {
		t.Fatalf("served = %d, want 5", served)
	}
	if q.getters != (waiterFIFO{}) {
		t.Errorf("drained getter FIFO = %+v, want empty", q.getters)
	}
	for i := range q.buf {
		if q.buf[i] != nil {
			t.Errorf("item slot %d retains a delivered message", i)
		}
	}
}

// TestResourceNoWaiterRetention applies the same check to resource wait
// queues, which share the FIFO implementation: a drained list links no
// process, and no served process links another.
func TestResourceNoWaiterRetention(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	var ps []*Proc
	for i := 0; i < 6; i++ {
		ps = append(ps, e.Spawn("u", func(p *Proc) { hold(p, r, 10) }))
	}
	e.Run(MaxTime)
	if r.PeakQueueLen() != 5 || r.waiters != (waiterFIFO{}) {
		t.Errorf("peak queue %d, drained wait list %+v; want 5, empty", r.PeakQueueLen(), r.waiters)
	}
	for i, p := range ps {
		if p.ep.next != nil {
			t.Errorf("served proc %d still links another", i)
		}
	}
}

// TestQueueRingWrapFIFO drives the ring through wrap-around and a grow
// while wrapped, checking strict FIFO order throughout.
func TestQueueRingWrapFIFO(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, "q")
	next, in := 0, 0
	take := func(n int) {
		for i := 0; i < n; i++ {
			if q.Len() == 0 {
				t.Fatalf("queue empty, want %d", next)
			}
			if v := q.take(); v != next {
				t.Fatalf("take = %d, want %d", v, next)
			}
			next++
		}
	}
	put := func(n int) {
		for i := 0; i < n; i++ {
			q.Put(in)
			in++
		}
	}
	put(5)
	take(3) // head advances: ring now wrapped relative to slot 0
	put(10) // forces a grow while wrapped
	take(12)
	for round := 0; round < 20; round++ { // steady-state wrap cycling
		put(7)
		take(7)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
}

// TestImmediateDispatchOrdering pins the merge rule between the heap and
// the same-time direct-dispatch ring: an event scheduled with zero delay
// during dispatch fires at the same timestamp but after every same-time
// event that was scheduled earlier.
func TestImmediateDispatchOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.After(10, func() {
		order = append(order, "A")
		e.After(0, func() {
			order = append(order, "C")
			e.After(0, func() { order = append(order, "D") })
		})
	})
	e.After(10, func() { order = append(order, "B") })
	end := e.Run(MaxTime)
	if end != 10 {
		t.Fatalf("end = %v, want 10 (immediate events must not advance time)", end)
	}
	want := []string{"A", "B", "C", "D"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestSpawnIndexedName: a goroutine proc spawned with an index is named
// name followed by the index, as is the EventProc it hosts for Await,
// and the name costs no allocation at spawn.
func TestSpawnIndexedName(t *testing.T) {
	e := NewEngine(1)
	var hosted string
	p := e.SpawnIndexed("rank", 12, func(p *Proc) {
		p.Await(func(ep *EventProc) { hosted = ep.Name() })
	})
	if p.Name() != "rank12" {
		t.Errorf("proc %s, want rank12", p.Name())
	}
	e.Run(MaxTime)
	if hosted != "rank12" {
		t.Errorf("hosted EventProc named %q, want rank12", hosted)
	}
	body := func(*Proc) {}
	i := 0
	if n := testing.AllocsPerRun(100, func() { e.SpawnIndexed("rank", i, body); i++ }); n != 1 {
		t.Errorf("SpawnIndexed: %v allocs, want 1 (the Proc)", n)
	}
}
