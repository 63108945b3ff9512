package des

import "testing"

// BenchmarkEventThroughput measures raw event dispatch rate — the DES
// engine's fundamental cost (events/sec governs how large a simulated
// system is practical).
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine(1)
	var fire func()
	n := 0
	fire = func() {
		n++
		if n < b.N {
			e.After(1, fire)
		}
	}
	b.ResetTimer()
	e.After(1, fire)
	e.Run(MaxTime)
}

// BenchmarkEngineEventChurn measures schedule+dispatch cost with a standing
// population of 256 timers, the realistic regime for cluster simulations
// where many devices and clients hold pending events simultaneously. This
// is the headline ns/event and allocs/event number for the kernel.
func BenchmarkEngineEventChurn(b *testing.B) {
	e := NewEngine(1)
	const standing = 256
	remaining := b.N
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < standing; i++ {
		period := Time(i%61 + 1)
		var fire func()
		fire = func() {
			if remaining > 0 {
				remaining--
				e.After(period, fire)
			}
		}
		e.After(period, fire)
	}
	e.Run(MaxTime)
}

// BenchmarkProcContextSwitch measures a cross-proc wake: two procs
// interleave their Waits, so every wake hands the event loop to the other
// proc's goroutine — one channel rendezvous and one goroutine switch.
func BenchmarkProcContextSwitch(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < 2; i++ {
		e.SpawnAt(Time(i), "p", func(p *Proc) {
			for k := 0; k < b.N/2; k++ {
				p.Wait(2)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(MaxTime)
}

// BenchmarkProcHandoff measures a full suspend/resume cycle of a lone
// simulated process including allocation accounting: every Wait schedules
// a wake and runs the event loop, which finds the proc's own wake next, so
// the proc continues without a goroutine switch.
func BenchmarkProcHandoff(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(MaxTime)
}

// BenchmarkEventProcHandoff measures a full suspend/resume cycle of a
// continuation-form process: every Wait stores the continuation, schedules
// an ep-carrying pooled event, and the engine loop invokes the
// continuation in place — no goroutine, no stack switch, no channel
// rendezvous. This is the ProcHandoff-equivalent number for the
// continuation execution form.
func BenchmarkEventProcHandoff(b *testing.B) {
	e := NewEngine(1)
	e.SpawnEvent("p", func(ep *EventProc) {
		n := 0
		var step StepFunc
		step = func() {
			n++
			if n < b.N {
				ep.Wait(1, step)
			}
		}
		ep.Wait(1, step)
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(MaxTime)
}

// BenchmarkProcAwaitInterleaved measures an awaited operation of four Wait
// steps, with two goroutine procs interleaving their operations so that
// consecutive steps belong to different procs. The steps before the last
// run in place on whichever goroutine holds the event loop; only the
// completing step hands the loop to its proc, one goroutine switch per
// operation. One op is one awaited operation.
func BenchmarkProcAwaitInterleaved(b *testing.B) {
	const steps = 4
	e := NewEngine(1)
	for i := 0; i < 2; i++ {
		e.SpawnAt(Time(i), "p", func(p *Proc) {
			var ep *EventProc
			left := 0
			var step StepFunc
			step = func() {
				if left--; left > 0 {
					ep.Wait(2, step)
				}
			}
			start := func(h *EventProc) {
				ep, left = h, steps
				h.Wait(2, step)
			}
			for k := 0; k < b.N/2; k++ {
				p.Await(start)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(MaxTime)
}

// BenchmarkEventProcQueuePingPong is QueuePingPong in continuation form:
// two event procs exchange a token through a pair of queues with zero
// goroutine handoffs.
func BenchmarkEventProcQueuePingPong(b *testing.B) {
	e := NewEngine(1)
	ab := NewQueue[int](e, "ab")
	ba := NewQueue[int](e, "ba")
	e.SpawnEvent("a", func(ep *EventProc) {
		i := 0
		var step StepFunc
		step = func() {
			ba.take()
			i++
			if i < b.N {
				ab.Put(i)
				ba.getE(ep, step)
			}
		}
		ab.Put(0)
		ba.getE(ep, step)
	})
	e.SpawnEvent("b", func(ep *EventProc) {
		var step StepFunc
		step = func() {
			ab.take()
			ba.Put(0)
			ab.getE(ep, step)
		}
		ab.getE(ep, step)
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(MaxTime)
}

// BenchmarkEventProcResourceContention is ResourceContention in
// continuation form: 8 event procs cycle through a capacity-2 resource.
func BenchmarkEventProcResourceContention(b *testing.B) {
	e := NewEngine(1)
	r := NewResource(e, "r", 2)
	per := b.N / 8
	if per == 0 {
		per = 1
	}
	for i := 0; i < 8; i++ {
		e.SpawnEvent("u", func(ep *EventProc) {
			k := 0
			var acquired, held StepFunc
			acquired = func() { ep.Wait(1, held) }
			held = func() {
				r.Release()
				k++
				if k < per {
					r.AcquireE(ep, acquired)
				}
			}
			r.AcquireE(ep, acquired)
		})
	}
	b.ResetTimer()
	e.Run(MaxTime)
}

// BenchmarkResourceContention measures queued Acquire/Release cycles under
// contention.
func BenchmarkResourceContention(b *testing.B) {
	e := NewEngine(1)
	r := NewResource(e, "r", 2)
	per := b.N / 8
	if per == 0 {
		per = 1
	}
	for i := 0; i < 8; i++ {
		e.Spawn("u", func(p *Proc) {
			for k := 0; k < per; k++ {
				r.Acquire(p)
				p.Wait(1)
				r.Release()
			}
		})
	}
	b.ResetTimer()
	e.Run(MaxTime)
}

// BenchmarkShardedWindow measures the coupling layer itself: a token
// circles 4 shards through ParallelGroup.Send, so every hop is one full
// epoch — safe-time computation, deterministic delivery merge and window
// execution. Handlers are pre-bound, so the Send/deliver path
// must report 0 allocs/op in steady state.
func BenchmarkShardedWindow(b *testing.B) {
	const n = 4
	engines := make([]*Engine, n)
	for i := range engines {
		engines[i] = NewEngine(int64(i))
	}
	g := NewParallelGroup(100, engines...)
	hops, target := 0, 64
	forward := make([]func(), n)
	for i := 0; i < n; i++ {
		i := i
		next := (i + 1) % n
		forward[i] = func() {
			if hops < target {
				hops++
				g.Send(i, next, 100, forward[next])
			}
		}
	}
	// Warm the pend/scratch buffers so the timed region is steady
	// state.
	engines[0].After(0, forward[0])
	g.Run(MaxTime)
	b.ReportAllocs()
	b.ResetTimer()
	hops, target = 0, b.N
	engines[0].After(0, forward[0])
	g.Run(MaxTime)
}

// BenchmarkQueuePingPong measures message-passing cost: two processes
// exchange a token through a pair of queues, the pattern under every
// simulated MPI point-to-point channel and server request queue.
func BenchmarkQueuePingPong(b *testing.B) {
	e := NewEngine(1)
	ab := NewQueue[int](e, "ab")
	ba := NewQueue[int](e, "ba")
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ab.Put(i)
			ba.Get(p)
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ab.Get(p)
			ba.Put(i)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(MaxTime)
}

// BenchmarkStreamShort measures creating a named stream and drawing 16
// numbers from it, an IOR random-pattern rank's use: the stream never
// leaves its lazy state.
func BenchmarkStreamShort(b *testing.B) { benchStream(b, 16) }

// BenchmarkStreamLong measures creating a named stream and drawing 2,000
// numbers from it: past its 273 lazy draws the stream builds the full
// 607-word register, then steps it as math/rand does.
func BenchmarkStreamLong(b *testing.B) { benchStream(b, 2000) }

func benchStream(b *testing.B, draws int) {
	r := NewStreamRNG(42)
	const name = "ior.rank0"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := r.Stream(name)
		for j := 0; j < draws; j++ {
			s.Int63n(1 << 30)
		}
		delete(r.streams, name)
	}
}
