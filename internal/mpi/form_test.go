package mpi

import (
	"fmt"
	"math/rand"
	"testing"

	"pioeval/internal/des"
)

// The collectives a generated program uses. colBarrier is a plain barrier.
const (
	colBarrier = iota
	colAllgather
	numCollectives
)

// barrierProg is a generated MPI program: in each round every rank
// computes for its own time (or not at all, at -1) and then joins the
// round's collective.
type barrierProg struct {
	size    int
	opts    Options
	compute [][]des.Time // [rank][round]
	ops     []int        // the collective of each round
	sizes   []int64      // its payload
}

func genBarrierProg(rng *rand.Rand) *barrierProg {
	pr := &barrierProg{size: 1 + rng.Intn(7)}
	pr.opts = Options{Alpha: des.Time(rng.Intn(2000))}
	if rng.Intn(3) > 0 {
		pr.opts.BetaBps = 1e9
	}
	rounds := 1 + rng.Intn(8)
	for i := 0; i < rounds; i++ {
		op := colBarrier
		if rng.Intn(2) == 0 {
			op = rng.Intn(numCollectives)
		}
		pr.ops = append(pr.ops, op)
		pr.sizes = append(pr.sizes, int64(rng.Intn(3))<<rng.Intn(20))
	}
	// Compute times come from a small set, so arrivals often tie.
	for r := 0; r < pr.size; r++ {
		row := make([]des.Time, rounds)
		for i := range row {
			row[i] = des.Time(rng.Intn(4)-1) * 500
		}
		pr.compute = append(pr.compute, row)
	}
	return pr
}

// cost is the wait a collective pays before its barrier, as the event form
// spells it out: P-1 ring steps for Allgather, which skips the wait at P=1.
func (pr *barrierProg) cost(i int) des.Time {
	if pr.ops[i] == colBarrier || pr.size == 1 {
		return noWait
	}
	return des.Time(pr.size-1) * pr.opts.xferCost(pr.sizes[i])
}

// runRank is the program on a goroutine rank, with the collectives called.
func (pr *barrierProg) runRank(r *Rank, out []des.Time) {
	for i, op := range pr.ops {
		if d := pr.compute[r.ID()][i]; d >= 0 {
			r.Compute(d)
		}
		switch size := pr.sizes[i]; op {
		case colBarrier:
			r.Barrier()
		case colAllgather:
			r.Allgather(size)
		}
		out[i] = r.Now()
	}
}

// runEvent is the program on an event rank: a collective is its cost as
// a Compute, then the barrier.
func (pr *barrierProg) runEvent(r *EventRank, out []des.Time) {
	i := 0
	var round, collective, barrier, released des.StepFunc
	round = func() {
		if i == len(pr.ops) {
			return
		}
		if d := pr.compute[r.ID()][i]; d >= 0 {
			r.Compute(d, collective)
			return
		}
		collective()
	}
	collective = func() {
		if d := pr.cost(i); d != noWait {
			r.Compute(d, barrier)
			return
		}
		barrier()
	}
	barrier = func() { r.Barrier(released) }
	released = func() {
		out[i] = r.Now()
		i++
		round()
	}
	round()
}

// run runs the program with rank i in goroutine form where goroutine[i],
// and returns each rank's release time per round and the engine's
// dispatch count.
func (pr *barrierProg) run(t *testing.T, goroutine []bool) ([][]des.Time, uint64) {
	t.Helper()
	e := des.NewEngine(1)
	w := NewWorld(e, pr.size, pr.opts)
	out := make([][]des.Time, pr.size)
	w.eventBody = func(r *EventRank) { pr.runEvent(r, out[r.ID()]) }
	for i := range out {
		out[i] = make([]des.Time, len(pr.ops))
		if goroutine[i] {
			w.spawn(i, func(r *Rank) { pr.runRank(r, out[r.ID()]) })
		} else {
			w.startEvent(new(EventRank), i)
		}
	}
	e.Run(des.MaxTime)
	if e.LiveProcs() != 0 {
		t.Fatalf("MPI deadlock: %d live ranks", e.LiveProcs())
	}
	return out, e.Dispatches()
}

// want is the analytic release time of every round: the last arrival, then
// the barrier's ceil(log2 P) rounds of alpha.
func (pr *barrierProg) want() []des.Time {
	want := make([]des.Time, len(pr.ops))
	var now des.Time
	for i := range pr.ops {
		last := now
		for r := 0; r < pr.size; r++ {
			at := now + max(pr.compute[r][i], 0) + max(pr.cost(i), 0)
			last = max(last, at)
		}
		now = last + pr.opts.Alpha*des.Time(ceilLog2(pr.size))
		want[i] = now
	}
	return want
}

// TestBarrierFormsAgree runs generated Compute/barrier/collective programs
// with every rank a goroutine, every rank an event process, and the two
// forms mixed in one World. The runs must release every rank at the same
// times, the analytic ones, and take the same number of events: the forms
// run one barrier machine, and a goroutine collective takes the events of
// its cost wait and its barrier.
func TestBarrierFormsAgree(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pr := genBarrierProg(rng)
		goroutine, event, mixed := make([]bool, pr.size), make([]bool, pr.size), make([]bool, pr.size)
		for i := range goroutine {
			goroutine[i], mixed[i] = true, rng.Intn(2) == 0
		}
		want := pr.want()
		var baseD uint64
		for _, forms := range [][]bool{goroutine, event, mixed} {
			out, disp := pr.run(t, forms)
			for r := range out {
				for i := range want {
					if out[r][i] != want[i] {
						t.Fatalf("seed %d, goroutine ranks %v: rank %d released from round %d (collective %d) at %v, want %v",
							seed, forms, r, i, pr.ops[i], out[r][i], want[i])
					}
				}
			}
			if baseD == 0 {
				baseD = disp
			} else if disp != baseD {
				t.Fatalf("seed %d, goroutine ranks %v: %d dispatches, all-goroutine took %d", seed, forms, disp, baseD)
			}
		}
	}
}

// TestBarrierAllocs pins a steady-state barrier at zero allocations in
// both forms. The barrier machine is its own continuation, so neither form
// binds anything; a goroutine collective costs nothing more.
func TestBarrierAllocs(t *testing.T) {
	for _, goroutine := range []bool{true, false} {
		t.Run(fmt.Sprintf("goroutine=%v", goroutine), func(t *testing.T) {
			e := des.NewEngine(1)
			w := NewWorld(e, 4, Options{Alpha: 100, BetaBps: 1e9})
			kick := new(des.Signal)
			stop := false
			rounds := 0
			if goroutine {
				w.Spawn(func(r *Rank) {
					for {
						kick.Wait(r.Proc())
						if stop {
							return
						}
						r.Compute(des.Time(r.ID()) * 10)
						r.Barrier()
						r.Allgather(64)
						if r.ID() == 0 {
							rounds++
						}
					}
				})
			} else {
				w.SpawnEvent(func(r *EventRank) {
					var wait, compute, barrier, released des.StepFunc
					wait = func() { kick.WaitE(r.Proc(), compute) }
					compute = func() {
						if !stop {
							r.Compute(des.Time(r.ID())*10, barrier)
						}
					}
					barrier = func() { r.Barrier(released) }
					released = func() {
						if r.ID() == 0 {
							rounds++
						}
						wait()
					}
					wait()
				})
			}
			round := func() {
				kick.Fire()
				e.Run(des.MaxTime)
			}
			e.Run(des.MaxTime)
			round()
			n := testing.AllocsPerRun(50, round)
			stop = true
			round()
			if n != 0 {
				t.Errorf("%v allocs per barrier round, want 0", n)
			}
			if e.LiveProcs() != 0 || rounds != 52 {
				t.Fatalf("LiveProcs %d, %d rounds; want 0, 52", e.LiveProcs(), rounds)
			}
		})
	}
}
