package des

// waiterFIFO is an intrusive FIFO of blocked processes, shared by queue
// getters, resource wait lists and signals. A goroutine proc waits through
// the EventProc it hosts, so waiters of both execution forms share one FIFO
// and wake in strict arrival order. The list is threaded through
// EventProc.next: an EventProc has at most one pending blocking point, so
// it is in at most one list, and waiting allocates nothing. pop clears the
// popped process's link, so a drained list reaches no process.
type waiterFIFO struct {
	head, tail *EventProc
	n          int
}

func (f *waiterFIFO) push(ep *EventProc) {
	if f.tail == nil {
		f.head = ep
	} else {
		f.tail.next = ep
	}
	f.tail = ep
	f.n++
}

// pop removes and returns the longest-waiting process, or nil when the
// FIFO is empty.
func (f *waiterFIFO) pop() *EventProc {
	ep := f.head
	if ep == nil {
		return nil
	}
	if f.head = ep.next; f.head == nil {
		f.tail = nil
	}
	ep.next = nil
	f.n--
	return ep
}

func (f *waiterFIFO) len() int { return f.n }

// Queue is an unbounded FIFO message store for inter-process communication
// in simulated time: Put never blocks, Get blocks until an item is present.
// It is the building block for MPI point-to-point channels and server
// request queues. Items live in a power-of-two ring buffer, so the
// steady-state Put/Get cycle moves typed values without boxing and without
// allocation, and popped slots are zeroed so the queue never retains
// references to delivered messages.
type Queue[T any] struct {
	eng  *Engine
	name string

	buf  []T // power-of-two ring
	head int
	n    int

	getters waiterFIFO
}

// NewQueue creates an empty queue bound to engine e.
func NewQueue[T any](e *Engine, name string) *Queue[T] {
	return &Queue[T]{eng: e, name: name}
}

// Put appends an item and wakes one waiting getter, if any.
// Safe to call from process or event context.
func (q *Queue[T]) Put(v T) {
	if q.n == len(q.buf) {
		nb := make([]T, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf = nb
		q.head = 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
	if ep := q.getters.pop(); ep != nil {
		ep.wakeNow()
	}
}

// Get removes and returns the oldest item, blocking until one is available.
func (q *Queue[T]) Get(p *Proc) T {
	p.await(func(ep *EventProc) { q.getE(ep, NoStep{}) })
	return q.take()
}

// getE is the continuation half of Get: k runs once the queue holds an
// item, synchronously when it already does, and Get takes the item once k
// has run. Otherwise the process joins the getter FIFO, and its wake
// re-checks the queue before k runs: a woken getter that finds the queue
// emptied again (a same-time getE of another process took the item
// first) re-enters at the back. The re-check rides the EventProc's retry
// slot, so waiting allocates nothing.
func (q *Queue[T]) getE(ep *EventProc, k Step) {
	if q.n > 0 {
		k.Step()
		return
	}
	ep.armRetry(q, k)
	q.getters.push(ep)
}

// retryE re-runs a woken getE.
func (q *Queue[T]) retryE(ep *EventProc, k Step) { q.getE(ep, k) }

func (q *Queue[T]) take() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // do not retain delivered items
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// Name returns the queue name.
func (q *Queue[T]) Name() string { return q.name }
