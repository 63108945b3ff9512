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
	ranks := make([]EventRank, w.size)
	for i := range ranks {
		ranks[i].start(w, i, fn)
	}
}

// start launches r as rank i of w, on the event process it embeds.
func (r *EventRank) start(w *World, i int, fn func(r *EventRank)) {
	r.rank = rank{w: w, id: i, ep: &r.proc}
	r.fn = fn
	r.stepF = r.resume
	w.eng.SpawnEventOn(&r.proc, "rank", i, r.stepF)
}

// EventRank is one MPI process in continuation form: the pairing of a
// rank id with its event process. All methods must be called from the
// rank's own event process, and each blocking method may be the rank's
// only pending blocking point (see des.EventProc).
type EventRank struct {
	rank
	fn   func(r *EventRank) // the body, until the rank starts
	proc des.EventProc      // the rank's process (rank.ep)
}

// resume is the rank's bound step: the body's start, then every barrier
// wake.
func (r *EventRank) resume() {
	if fn := r.fn; fn != nil {
		r.fn = nil
		fn(r)
		return
	}
	r.step()
}

// Proc returns the underlying event process.
func (r *EventRank) Proc() *des.EventProc { return r.ep }

// Compute advances simulated time by d (models computation), then runs k.
func (r *EventRank) Compute(d des.Time, k func()) { r.ep.Wait(d, k) }

// Barrier synchronizes all ranks (of either execution form) and then runs
// k; the cost model adds a log2(P) latency term to the release.
func (r *EventRank) Barrier(k func()) { r.enter(noWait, k) }

// rank is what the two rank forms share: the id and the barrier machine,
// which runs on the rank's event process (an EventRank's own, or the one a
// goroutine Rank hosts for Await) and re-enters stepF on every wake.
type rank struct {
	w     *World
	id    int
	ep    *des.EventProc
	stepF func() // step, or a step that leads to it
	k     func() // runs on release
	phase uint8
}

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
func (r *rank) enter(d des.Time, k func()) {
	r.k, r.phase = k, barArrive
	if d != noWait {
		r.ep.Wait(d, r.stepF)
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
			w.barSignal.WaitE(r.ep, r.stepF)
			return
		}
		w.barCount = 0
		// Dissemination barrier cost: ceil(log2 P) rounds of alpha.
		r.phase = barFire
		r.ep.Wait(w.opts.Alpha*des.Time(ceilLog2(w.size)), r.stepF)
		return
	case barFire:
		w.barSignal.Fire()
	}
	k := r.k
	r.k = nil
	k()
}
