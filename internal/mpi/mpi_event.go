package mpi

import "pioeval/internal/des"

// This file holds the barrier machine, which ranks of both forms run, and
// EventRank, a rank that is an event process, so a million ranks cost a
// million small structs, not goroutine stacks. EventRank has only Compute
// and Barrier, all the scale path needs; point-to-point and the other
// collectives live on the goroutine Rank (mpi.go).

// SpawnEvent launches fn once per rank as continuation-form event
// processes (des.EventProc). Call once; then run the engine. Rank i's
// process is named "rank<i>". Goroutine and event ranks can share one
// World's barrier: call both Spawn and SpawnEvent, with each body
// returning at once for the ranks the other form runs. The ranks, each
// with the event process it embeds, are one allocation.
func (w *World) SpawnEvent(fn func(r *EventRank)) {
	w.eventBody = fn
	ranks := make([]EventRank, w.size)
	for i := range ranks {
		w.startEvent(&ranks[i], i)
	}
}

// startEvent launches r as rank i of w, on the event process it embeds.
func (w *World) startEvent(r *EventRank, i int) {
	r.rank = rank{w: w, id: i, ep: &r.proc}
	w.eng.SpawnEventOn(&r.proc, "rank", i, (*eventRankStart)(r))
}

// EventRank is one MPI process in continuation form: the pairing of a
// rank id with its event process. All methods must be called from the
// rank's own event process, and each blocking method may be the rank's
// only pending blocking point (see des.EventProc).
type EventRank struct {
	rank
	proc des.EventProc // the rank's process (rank.ep)
}

// eventRankStart is an EventRank seen as its first step, which runs the
// World's body; a conversion, so Step stays off EventRank's method set.
type eventRankStart EventRank

func (s *eventRankStart) Step() {
	r := (*EventRank)(s)
	r.w.eventBody(r)
}

// Proc returns the underlying event process.
func (r *EventRank) Proc() *des.EventProc { return r.ep }

// Compute advances simulated time by d (models computation), then runs k.
func (r *EventRank) Compute(d des.Time, k des.Step) { r.ep.Wait(d, k) }

// Barrier synchronizes all ranks (of either execution form) and then runs
// k; the cost model adds a log2(P) latency term to the release.
func (r *EventRank) Barrier(k des.Step) { r.enter(noWait, k) }

// rank is what the two rank forms share: the id and the barrier machine,
// which runs on the rank's event process (an EventRank's own, or the one a
// goroutine Rank hosts for Await) and re-enters step on every wake.
type rank struct {
	w     *World
	id    int
	ep    *des.EventProc
	k     des.Step // runs on release
	phase uint8
}

// barrierStep is a rank seen as its barrier machine's continuation; a
// conversion, so Step stays off the rank types' method sets.
type barrierStep rank

func (b *barrierStep) Step() { (*rank)(b).step() }

// ID returns the rank number.
func (r *rank) ID() int { return r.id }

// Size returns the communicator size.
func (r *rank) Size() int { return r.w.size }

// Now returns the current simulated time.
func (r *rank) Now() des.Time { return r.w.eng.Now() }

// noWait is the wait before a barrier that has none.
const noWait des.Time = -1

// The barrier phases, named for what step does when it next runs.
const (
	barArrive  uint8 = iota // count the rank in (after any collective cost)
	barFire                 // the completing arrival paid the release cost
	barRelease              // a waiting rank was woken
)

// enter starts the barrier machine: after a wait of d unless d is noWait,
// the rank arrives at the barrier, and k runs once it is released.
func (r *rank) enter(d des.Time, k des.Step) {
	r.k, r.phase = k, barArrive
	if d != noWait {
		r.ep.Wait(d, (*barrierStep)(r))
		return
	}
	r.step()
}

// step is the only code that touches the World's barrier count. The
// completing arrival releases the others after the barrier cost. Only it
// fires the signal, when every other rank of its round waits, so a
// waiting rank's one wake is its release.
func (r *rank) step() {
	w := r.w
	switch r.phase {
	case barArrive:
		w.barCount++
		if w.barCount < w.size {
			r.phase = barRelease
			w.barSignal.WaitE(r.ep, (*barrierStep)(r))
			return
		}
		w.barCount = 0
		// Dissemination barrier cost: ceil(log2 P) rounds of alpha.
		r.phase = barFire
		r.ep.Wait(w.opts.Alpha*des.Time(ceilLog2(w.size)), (*barrierStep)(r))
		return
	case barFire:
		w.barSignal.Fire()
	}
	k := r.k
	r.k = nil
	k.Step()
}
