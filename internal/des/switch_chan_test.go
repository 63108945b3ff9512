//go:build !go1.23

package des

// restartAllocs is what restarting TestSpawnOnKeepsCoroutine's 64
// finished procs allocates per run with channel procs: each restart
// starts a goroutine with its wake channel (two allocations), and the
// first Run after a Reset makes the engine's hand-back channel.
const restartAllocs = 2*64 + 1
