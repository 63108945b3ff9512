//go:build !go1.23

package campaign

// The proc form these tests run on: channel procs (before go1.23,
// des/switch_chan.go).
const coroutineProcs = false

// reusedJobAllocs is TestReusedJobAllocs's bound with channel procs: 18
// allocations measured (162 on a new stack), plus a small margin. It was
// 20 while a reset stack built a new provider per job.
const reusedJobAllocs = 20
