package mpi

import (
	"fmt"

	"pioeval/internal/des"
)

// This file is the continuation-form (goroutine-free) port of the rank
// API: EventRank mirrors Rank method-for-method with blocking points as
// continuation callbacks, so a million ranks cost a million small structs
// instead of a million goroutine stacks. The cost models are shared with
// the blocking forms — only the suspension mechanism differs.

// SpawnEvent launches fn once per rank as continuation-form event
// processes (des.EventProc). Call once; then run the engine. Event ranks
// and goroutine ranks may coexist in one World and exchange messages.
// Rank i's process is named "rank<i>".
func (w *World) SpawnEvent(fn func(r *EventRank)) {
	for i := 0; i < w.size; i++ {
		r := &EventRank{w: w, id: i, fn: fn}
		r.resumeF = r.resume
		r.ep = w.eng.SpawnEventK("rank", i, r.resumeF)
	}
}

// EventRank is one MPI process in continuation form: the pairing of a
// rank id with its event process. All methods must be called from the
// rank's own event process, and each blocking method may be the rank's
// only pending blocking point (see des.EventProc).
type EventRank struct {
	w  *World
	id int
	ep *des.EventProc
	fn func(r *EventRank) // the body, until the rank starts

	// Barrier state: the continuation to run on release, the generation
	// a waiting rank entered in, and whether this rank completed the
	// barrier and pays its release cost.
	barK    func()
	barGen  int
	barLead bool

	// resumeF is bound once and serves as the first step and as every
	// barrier wake.
	resumeF func()
}

func (r *EventRank) resume() {
	if fn := r.fn; fn != nil {
		r.fn = nil
		fn(r)
		return
	}
	r.barrierStep()
}

// ID returns the rank number.
func (r *EventRank) ID() int { return r.id }

// Size returns the communicator size.
func (r *EventRank) Size() int { return r.w.size }

// Proc returns the underlying event process.
func (r *EventRank) Proc() *des.EventProc { return r.ep }

// Now returns the current simulated time.
func (r *EventRank) Now() des.Time { return r.ep.Now() }

// Compute advances simulated time by d (models computation), then runs k.
func (r *EventRank) Compute(d des.Time, k func()) { r.ep.Wait(d, k) }

// Send transmits size bytes to dst with tag; the sender blocks for the
// transfer cost (eager protocol), after which the message is available at
// the destination and k runs.
func (r *EventRank) Send(dst, tag int, size int64, k func()) {
	if dst < 0 || dst >= r.w.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	r.ep.Wait(r.w.opts.xferCost(size), func() {
		r.w.msgs++
		r.w.bytesSent += size
		r.w.queue(chanKey{r.id, dst, tag}).Put(Message{Src: r.id, Tag: tag, Size: size})
		k()
	})
}

// Recv blocks until a message with the given source and tag arrives, then
// hands it to k.
func (r *EventRank) Recv(src, tag int, k func(Message)) {
	if src < 0 || src >= r.w.size {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d", src))
	}
	r.w.queue(chanKey{src, r.id, tag}).GetE(r.ep, k)
}

// Sendrecv exchanges messages with a partner without deadlocking: the send
// completes, then the receive blocks.
func (r *EventRank) Sendrecv(dst, sendTag int, size int64, src, recvTag int, k func(Message)) {
	r.Send(dst, sendTag, size, func() {
		r.Recv(src, recvTag, k)
	})
}

// Barrier synchronizes all ranks (of either execution form) and then runs
// k; the cost model adds a log2(P) latency term to the release.
func (r *EventRank) Barrier(k func()) {
	w := r.w
	w.barCount++
	r.barK = k
	if w.barCount == w.size {
		w.barCount = 0
		w.barGen++
		// Dissemination barrier cost: ceil(log2 P) rounds of alpha.
		r.barLead = true
		r.ep.Wait(w.opts.Alpha*des.Time(ceilLog2(w.size)), r.resumeF)
		return
	}
	r.barGen = w.barGen
	r.barrierStep()
}

// barrierStep is a barrier wake: the completing rank releases the others
// after the barrier cost; a waiting rank continues once the generation has
// moved on, and waits again otherwise.
func (r *EventRank) barrierStep() {
	w := r.w
	if r.barLead {
		r.barLead = false
		w.barSignal.Fire()
	} else if w.barGen == r.barGen {
		w.barSignal.WaitE(r.ep, r.resumeF)
		return
	}
	k := r.barK
	r.barK = nil
	k()
}

// Bcast models a binomial-tree broadcast of size bytes from root. Every
// rank blocks for the modeled completion cost; no payload is exchanged.
func (r *EventRank) Bcast(root int, size int64, k func()) {
	rounds := ceilLog2(r.w.size)
	r.ep.Wait(des.Time(rounds)*r.w.opts.xferCost(size), func() {
		r.Barrier(k)
	})
}

// Allreduce models a recursive-doubling allreduce over size bytes.
func (r *EventRank) Allreduce(size int64, k func()) {
	rounds := ceilLog2(r.w.size)
	r.ep.Wait(des.Time(rounds)*r.w.opts.xferCost(size), func() {
		r.Barrier(k)
	})
}

// Reduce models a binomial-tree reduction to root.
func (r *EventRank) Reduce(root int, size int64, k func()) {
	rounds := ceilLog2(r.w.size)
	r.ep.Wait(des.Time(rounds)*r.w.opts.xferCost(size), func() {
		r.Barrier(k)
	})
}
