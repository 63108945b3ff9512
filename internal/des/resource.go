package des

import (
	"fmt"
	"math"
)

// Resource models a server with fixed capacity and a FIFO wait queue:
// network links, disk queues, CPU slots. Acquire blocks the calling process
// until a unit is available; Release frees a unit and wakes the head waiter.
type Resource struct {
	eng  *Engine
	name string
	// affix, when set, holds the fixed part of the resource's name (see
	// InitAffixed).
	affix *NameAffix
	// capacity and inUse are 32-bit so that they share a word, which
	// keeps a network node's two links in a smaller size class.
	capacity, inUse int32
	waiters         waiterFIFO
	resourceUsage
}

// resourceUsage is a Resource's utilization accounting, which Reset zeroes.
type resourceUsage struct {
	busyTime   Time // integral of inUse over time, in unit-nanoseconds
	lastChange Time
	peakQueue  int
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(e *Engine, name string, capacity int) *Resource {
	r := new(Resource)
	r.Init(e, name, capacity)
	return r
}

// Init sets up r, typically a field embedded by value in its owner, as a
// fresh resource with the given capacity (>= 1). It saves the owner one
// heap object per resource. A Resource must not be copied once used.
func (r *Resource) Init(e *Engine, name string, capacity int) {
	r.InitAffixed(e, nil, name, capacity)
}

// NameAffix is the fixed part of the names of a family of resources: one
// set up by InitAffixed is named Prefix, then its own name, then Suffix.
type NameAffix struct{ Prefix, Suffix string }

// InitAffixed is Init for a resource named a.Prefix + name + a.Suffix
// (name alone when a is nil). The name is formatted only when Name is
// called, so an owner that makes many resources shares one NameAffix and
// saves a string per resource; *a must not change afterwards.
func (r *Resource) InitAffixed(e *Engine, a *NameAffix, name string, capacity int) {
	if capacity < 1 || capacity > math.MaxInt32 {
		panic(fmt.Sprintf("des: resource %q capacity %d outside [1, 2^31)", name, capacity))
	}
	*r = Resource{eng: e, name: name, affix: a, capacity: int32(capacity)}
}

// Reset returns an idle r to its state just after Init: its accounting
// is zeroed. Reset a resource together with its engine (Engine.Reset),
// whose clock its accounting reads. It panics with ErrLiveReset while a
// unit is held or a process waits.
func (r *Resource) Reset() {
	if r.inUse > 0 || r.waiters.len() > 0 {
		panic(fmt.Errorf("%w: resource %s has %d units held, %d waiters", ErrLiveReset, r.Name(), r.inUse, r.waiters.len()))
	}
	r.resourceUsage = resourceUsage{}
}

func (r *Resource) account() {
	r.busyTime += Time(r.inUse) * (r.eng.now - r.lastChange)
	r.lastChange = r.eng.now
}

// Acquire obtains one unit of the resource, blocking in FIFO order.
func (r *Resource) Acquire(p *Proc) { p.await(func(ep *EventProc) { r.AcquireE(ep, NoStep{}) }) }

// AcquireE is the continuation form of Acquire: when a unit is free, k
// runs synchronously; otherwise the process joins the wait FIFO and
// re-checks on wake, re-entering at the back if a same-time AcquireE of
// another process took the unit first. A contended wait keeps the
// resource in the EventProc's retry slot, so it allocates nothing.
func (r *Resource) AcquireE(ep *EventProc, k Step) {
	if r.inUse >= r.capacity {
		ep.armRetry(r, k)
		r.waiters.push(ep)
		if r.waiters.len() > r.peakQueue {
			r.peakQueue = r.waiters.len()
		}
		return
	}
	r.account()
	r.inUse++
	k.Step()
}

// retryE re-runs a woken AcquireE.
func (r *Resource) retryE(ep *EventProc, k Step) { r.AcquireE(ep, k) }

// Release returns one unit and wakes the longest-waiting process, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("des: release of idle resource %q", r.Name()))
	}
	r.account()
	r.inUse--
	if ep := r.waiters.pop(); ep != nil {
		ep.wakeNow()
	}
}

// QueueLen reports the number of processes waiting.
func (r *Resource) QueueLen() int { return r.waiters.len() }

// PeakQueueLen reports the maximum observed wait-queue length.
func (r *Resource) PeakQueueLen() int { return r.peakQueue }

// Utilization returns mean busy fraction of capacity over [0, now].
func (r *Resource) Utilization() float64 {
	now := r.eng.now
	if now == 0 {
		return 0
	}
	busy := r.busyTime + Time(r.inUse)*(now-r.lastChange)
	return float64(busy) / (float64(now) * float64(r.capacity))
}

// Name returns the resource name.
func (r *Resource) Name() string {
	if a := r.affix; a != nil {
		return a.Prefix + r.name + a.Suffix
	}
	return r.name
}

// Capacity returns the configured capacity.
func (r *Resource) Capacity() int { return int(r.capacity) }
