// Scientific workflow + burst buffer: the §V-C scenario. A multi-stage
// workflow DAG runs against the PFS, showing its metadata intensity; then a
// bursty checkpoint is absorbed by the Figure-1 burst-buffer tier.
//
//	go run ./examples/workflow
package main

import (
	"fmt"
	"log"

	"pioeval/internal/des"
	"pioeval/internal/pfs"
	"pioeval/internal/stack"
	"pioeval/internal/storage"
	"pioeval/internal/workload"
)

func main() {
	log.SetFlags(0)

	// Part 1: a diamond workflow (produce -> 4x analyze -> combine).
	engine := des.NewEngine(11)
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	fsim := pfs.New(engine, cfg)
	wf := workload.RunWorkflow(engine, fsim, workload.DiamondWorkflow(4, 32<<20), nil)
	fmt.Println("diamond workflow (1 producer, 4 analyzers, 1 combiner):")
	fmt.Printf("  tasks %d, makespan %v\n", wf.TasksRun, wf.Makespan)
	fmt.Printf("  data: read %d MB, wrote %d MB\n", wf.BytesRead>>20, wf.BytesWrit>>20)
	fmt.Printf("  metadata: %d MDS ops (%.2f ops per MB moved)\n", wf.MetaOps, wf.MetaOpsPerMB)

	// Part 2: a chain workflow with small files is far more
	// metadata-intensive per byte.
	engine2 := des.NewEngine(11)
	fsim2 := pfs.New(engine2, cfg)
	chain := workload.RunWorkflow(engine2, fsim2, workload.ChainWorkflow(8, 16, 128<<10), nil)
	fmt.Println("\nchain workflow (8 stages x 16 small files):")
	fmt.Printf("  metadata intensity: %.2f MDS ops per MB (vs %.2f for the diamond)\n",
		chain.MetaOpsPerMB, wf.MetaOpsPerMB)

	// Part 3: checkpoint through the burst-buffer tier vs direct.
	bb, err := stack.New(stack.Config{Cluster: cfg, Seed: 11, Tier: storage.TierBB})
	if err != nil {
		log.Fatal(err)
	}
	h := workload.NewHarnessOn(bb.E, bb.FS, 4, "cn", nil, bb.Provider)
	buffered := workload.RunCheckpoint(h, workload.CheckpointConfig{
		Ranks: 4, BytesPerRank: 16 << 20, Steps: 3, ComputeTime: 50 * des.Millisecond,
	})

	engine4 := des.NewEngine(11)
	fsim4 := pfs.New(engine4, cfg)
	h4 := workload.NewHarness(engine4, fsim4, 4, "cn", nil)
	direct := workload.RunCheckpoint(h4, workload.CheckpointConfig{
		Ranks: 4, BytesPerRank: 16 << 20, Steps: 3, ComputeTime: 50 * des.Millisecond,
	})

	fmt.Println("\ncheckpoint (4 ranks x 16MB x 3 steps):")
	fmt.Printf("  direct to PFS:      perceived %8.1f MB/s, I/O fraction %.2f\n",
		direct.EffectiveMBps, direct.IOFraction)
	fmt.Printf("  via burst buffer:   perceived %8.1f MB/s, I/O fraction %.2f\n",
		buffered.EffectiveMBps, buffered.IOFraction)
	st := bb.Provider.Buffers()[0].Stats()
	fmt.Printf("  buffer absorbed %d MB (peak occupancy %d MB, stalls %d)\n",
		st.Absorbed>>20, st.PeakUsed>>20, st.Stalls)
}
