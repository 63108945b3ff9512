package stack

import (
	"slices"
	"sync"

	"pioeval/internal/trace"
	"pioeval/internal/workload"
)

// Loan is a stack a Lender lent, with the rank harness the last job on it
// ran on.
type Loan struct {
	*Stack
	h workload.Harness
	// next links the loan into its lender's list of loans out.
	next *Loan
}

// Harness resets the loan's harness onto its stack for a job of ranks
// ranks named prefix0, prefix1, ..., tracing into col (nil for none), and
// returns it. The ranks the last job on the stack built are reused
// (workload.Harness.Reset), and so are their storage targets
// (storage.Provider.Reset).
func (l *Loan) Harness(ranks int, prefix string, col *trace.Collector) *workload.Harness {
	l.h.Reset(l.E, l.FS, ranks, prefix, col, l.Provider)
	return &l.h
}

// Lender lends stacks to the jobs of one run, so that jobs of one
// configuration share an engine, file system, provider, stage and rank
// harness instead of building them per job. The caller keys the
// configurations: the jobs of one key must have one configuration but for
// its seed. A job takes a stack of its key, an idle one reset
// (Stack.Reset) when there is one and a new one otherwise, and gives it
// back once its simulation has returned. A job that panics never gives
// its stack back, so no stack or harness carries the state a panic left.
// At most a set number of stacks, one per worker, are kept idle; the
// oldest is dropped first, and its engine closed (des.Engine.Close),
// which ends the coroutines its ranks and drain workers keep between
// jobs. A Lender is safe for concurrent use. Make one per run and Close
// it when the run is done.
type Lender[K comparable] struct {
	mu   sync.Mutex
	idle []idleLoan[K]
	max  int
	// lent lists the loans taken and not yet given back, linked through
	// Loan.next.
	lent *Loan
}

// idleLoan is a loan of key that no job holds.
type idleLoan[K comparable] struct {
	key K
	ln  *Loan
}

// NewLender returns a lender keeping at most n (at least 1) idle stacks.
func NewLender[K comparable](n int) *Lender[K] {
	return &Lender[K]{max: max(n, 1)}
}

// Take lends a stack of key, whose configuration is cfg, with its engine
// seeded with cfg.Seed. It fails as New fails.
func (l *Lender[K]) Take(key K, cfg Config) (*Loan, error) {
	l.mu.Lock()
	for i, il := range l.idle {
		if il.key == key {
			l.idle = slices.Delete(l.idle, i, i+1)
			l.lend(il.ln)
			l.mu.Unlock()
			il.ln.Reset(cfg.Seed)
			return il.ln, nil
		}
	}
	l.mu.Unlock()
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	ln := &Loan{Stack: s}
	l.mu.Lock()
	l.lend(ln)
	l.mu.Unlock()
	return ln, nil
}

// lend lists ln among the loans out.
func (l *Lender[K]) lend(ln *Loan) { ln.next, l.lent = l.lent, ln }

// Put gives back ln, lent for key, once its job has returned.
func (l *Lender[K]) Put(key K, ln *Loan) {
	var evicted *Loan
	l.mu.Lock()
	for p := &l.lent; *p != nil; p = &(*p).next {
		if *p == ln {
			*p, ln.next = ln.next, nil
			break
		}
	}
	if len(l.idle) == l.max {
		evicted = l.idle[0].ln
		l.idle = slices.Delete(l.idle, 0, 1)
	}
	l.idle = append(l.idle, idleLoan[K]{key, ln})
	l.mu.Unlock()
	if evicted != nil {
		evicted.E.Close()
	}
}

// Close closes the engines of the idle stacks and abandons those of the
// loans never given back, the stacks of jobs that panicked
// (des.Engine.Abandon), so no proc of the run keeps a goroutine. Call it
// once no job holds a loan.
func (l *Lender[K]) Close() {
	l.mu.Lock()
	idle, lent := l.idle, l.lent
	l.idle, l.lent = nil, nil
	l.mu.Unlock()
	for _, il := range idle {
		il.ln.E.Close()
	}
	for ln := lent; ln != nil; ln = ln.next {
		ln.E.Abandon()
	}
}
