//go:build go1.23

package campaign

// The proc form these tests run on: coroutine procs (go1.23 and later,
// des/switch_coro.go).
const coroutineProcs = true

// reusedJobAllocs is TestReusedJobAllocs's bound with coroutine procs: 13
// allocations measured (go1.24; 185 on a new stack), plus a small margin.
// It was 39 while a restarted rank started a new iter.Pull coroutine per
// job, and 41 while a reset stack built a new provider per job.
const reusedJobAllocs = 15
