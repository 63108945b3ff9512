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
// At most a set number of stacks, one per worker, are kept idle; the oldest is dropped
// first. A Lender is safe for concurrent use. It holds its idle stacks
// until it is garbage, so make one per run.
type Lender[K comparable] struct {
	mu   sync.Mutex
	idle []idleLoan[K]
	max  int
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
	return &Loan{Stack: s}, nil
}

// Put gives back ln, lent for key, once its job has returned.
func (l *Lender[K]) Put(key K, ln *Loan) {
	l.mu.Lock()
	if len(l.idle) == l.max {
		l.idle = slices.Delete(l.idle, 0, 1)
	}
	l.idle = append(l.idle, idleLoan[K]{key, ln})
	l.mu.Unlock()
}
