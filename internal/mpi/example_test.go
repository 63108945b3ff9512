package mpi_test

import (
	"fmt"

	"pioeval/internal/des"
	"pioeval/internal/mpi"
)

// ExampleWorld_SpawnEvent shows goroutine and event ranks sharing one
// barrier. Ranks 0 and 1 are goroutine procs, ranks 2 and 3 event procs:
// each form's body returns at once for the ranks the other form runs. The
// last arrival, event rank 3 at 4ms, pays the release cost of two rounds
// of alpha and continues first; the others wake in arrival order.
func ExampleWorld_SpawnEvent() {
	e := des.NewEngine(1)
	w := mpi.NewWorld(e, 4, mpi.Options{Alpha: des.Microsecond})
	w.Spawn(func(r *mpi.Rank) {
		if r.ID() >= 2 {
			return
		}
		r.Compute(des.Time(r.ID()+1) * des.Millisecond)
		r.Barrier()
		fmt.Printf("goroutine rank %d released at %v\n", r.ID(), r.Now())
	})
	w.SpawnEvent(func(r *mpi.EventRank) {
		if r.ID() < 2 {
			return
		}
		r.Compute(des.Time(r.ID()+1)*des.Millisecond, des.StepFunc(func() {
			r.Barrier(des.StepFunc(func() {
				fmt.Printf("event rank %d released at %v\n", r.ID(), r.Now())
			}))
		}))
	})
	e.Run(des.MaxTime)
	// Output:
	// event rank 3 released at 4.002ms
	// goroutine rank 0 released at 4.002ms
	// goroutine rank 1 released at 4.002ms
	// event rank 2 released at 4.002ms
}
