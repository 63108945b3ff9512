// Package mpi simulates an MPI runtime on top of the discrete-event engine:
// ranks are simulated processes, point-to-point messages pay a latency +
// bandwidth (alpha-beta) cost, the barrier pays a logarithmic cost and
// Allgather a ring cost.
// It is the middleware under the simulated MPI-IO layer (internal/mpiio)
// and the vehicle for all multi-rank workloads.
//
// Rank (World.Spawn) is a goroutine proc with the whole API. EventRank
// (World.SpawnEvent) is a continuation-form event proc for million-rank
// runs, with only Compute and Barrier. Both run one barrier machine
// (mpi_event.go), a Rank through des.Proc.Await, so they share a barrier.
package mpi

import (
	"fmt"
	"math/bits"

	"pioeval/internal/des"
)

// Options configures the communication cost model.
type Options struct {
	// Alpha is the per-message latency.
	Alpha des.Time
	// BetaBps is the per-rank link bandwidth in bytes/second.
	BetaBps float64
}

// DefaultOptions returns an InfiniBand-like cost model: 1.5us latency,
// 10 GB/s bandwidth.
func DefaultOptions() Options {
	return Options{Alpha: 1500 * des.Nanosecond, BetaBps: 10e9}
}

// xferCost returns alpha + size/beta.
func (o Options) xferCost(size int64) des.Time {
	t := o.Alpha
	if o.BetaBps > 0 {
		t += des.Time(float64(size) / o.BetaBps * float64(des.Second))
	}
	return t
}

// World is an MPI communicator: a fixed set of ranks on one engine.
type World struct {
	eng  *des.Engine
	size int
	opts Options

	queues map[chanKey]*des.Queue[Message]

	// Barrier state, touched only by rank.step.
	barCount  int
	barSignal des.Signal

	// eventBody is the body SpawnEvent runs on every event rank.
	eventBody func(r *EventRank)

	// bytesSent is the total point-to-point payload.
	bytesSent int64
}

type chanKey struct {
	src, dst, tag int
}

// Message is a received point-to-point message.
type Message struct {
	Src  int
	Tag  int
	Size int64
}

// NewWorld creates a communicator with size ranks.
func NewWorld(e *des.Engine, size int, opts Options) *World {
	if size < 1 {
		panic("mpi: world size must be >= 1")
	}
	return &World{
		eng:    e,
		size:   size,
		opts:   opts,
		queues: make(map[chanKey]*des.Queue[Message]),
	}
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Engine returns the simulation engine.
func (w *World) Engine() *des.Engine { return w.eng }

// Options returns the cost-model options.
func (w *World) Options() Options { return w.opts }

// BytesSent reports total point-to-point payload bytes.
func (w *World) BytesSent() int64 { return w.bytesSent }

// Spawn launches fn once per rank as simulated processes. Call once; then
// run the engine. Rank i's process is named "rank<i>".
func (w *World) Spawn(fn func(r *Rank)) {
	for i := 0; i < w.size; i++ {
		w.spawn(i, fn)
	}
}

// spawn launches rank i as a goroutine proc.
func (w *World) spawn(i int, fn func(r *Rank)) {
	w.eng.SpawnIndexed("rank", i, func(p *des.Proc) {
		fn(&Rank{rank: rank{w: w, id: i}, p: p})
	})
}

func (w *World) queue(k chanKey) *des.Queue[Message] {
	q, ok := w.queues[k]
	if !ok {
		q = des.NewQueue[Message](w.eng, fmt.Sprintf("mpi.%d.%d.%d", k.src, k.dst, k.tag))
		w.queues[k] = q
	}
	return q
}

// Rank is one MPI process: the pairing of a rank id with its simulated
// process. All methods must be called from the rank's own process.
type Rank struct {
	rank // its barrier machine runs on the EventProc p hosts for Await
	p    *des.Proc
}

// Proc returns the underlying simulated process.
func (r *Rank) Proc() *des.Proc { return r.p }

// Compute advances simulated time by d (models computation).
func (r *Rank) Compute(d des.Time) { r.p.Wait(d) }

// Send transmits size bytes to dst with tag; the sender blocks for the
// transfer cost (eager protocol), after which the message is available at
// the destination.
func (r *Rank) Send(dst, tag int, size int64) {
	if dst < 0 || dst >= r.w.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	r.p.Wait(r.w.opts.xferCost(size))
	r.w.bytesSent += size
	r.w.queue(chanKey{r.id, dst, tag}).Put(Message{Src: r.id, Tag: tag, Size: size})
}

// Recv blocks until a message with the given source and tag arrives.
func (r *Rank) Recv(src, tag int) Message {
	if src < 0 || src >= r.w.size {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d", src))
	}
	return r.w.queue(chanKey{src, r.id, tag}).Get(r.p)
}

// Barrier synchronizes all ranks; the cost model adds a log2(P) latency
// term to the release.
func (r *Rank) Barrier() { r.await(noWait) }

// Allgather models gathering size bytes from every rank to every rank
// (ring algorithm: P-1 steps of size bytes). Every rank blocks for the
// modeled completion cost, then synchronizes as Barrier does; no payload
// is exchanged.
func (r *Rank) Allgather(size int64) {
	d := noWait // no ring steps at P=1
	if r.w.size > 1 {
		d = des.Time(r.w.size-1) * r.w.opts.xferCost(size)
	}
	r.await(d)
}

// await runs the barrier machine as one awaited operation, after a wait of
// d unless d is noWait, so a collective costs its proc one hand-off.
func (r *Rank) await(d des.Time) {
	r.p.Await(func(ep *des.EventProc) {
		r.ep = ep
		r.enter(d, nop)
	})
}

// nop is the completion of an awaited barrier: the awaiting proc resumes
// once the machine's last step returns.
var nop = des.StepFunc(func() {})

// ceilLog2 returns ceil(log2 n) for n >= 1.
func ceilLog2(n int) int { return bits.Len(uint(n - 1)) }
