package pioeval_test

import (
	"fmt"
	"testing"

	"pioeval/internal/workload"
)

// Scale benchmarks: the continuation-form rank path that makes
// million-rank simulations affordable. Rank counts here are capped for CI
// (bench-smoke runs with -benchtime 1x); the EXPERIMENTS.md scale runbook
// records full 100k- and 1M-rank runs through `simfs -ranks`.

// BenchmarkScaleCheckpoint10k reports the host-side cost of simulating a
// 10k-rank file-per-process checkpoint in continuation form. Metrics:
// simulated events per benchmark op and events/sec on the host.
func BenchmarkScaleCheckpoint10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := workload.RunShardedCheckpoint(workload.ShardedConfig{
			Scale: workload.ScaleConfig{
				Ranks: 10_000, BytesPerRank: 1 << 20, Steps: 1,
				TransferSize: 1 << 20, RanksPerNode: 64, StripeCount: 1,
			},
			Shards: 1,
			Seed:   11,
		})
		if rep.IOErrors != 0 {
			b.Fatalf("I/O errors: %d", rep.IOErrors)
		}
		b.ReportMetric(float64(rep.Events), "events/op")
	}
}

// BenchmarkScaleRankMemory reports retained heap bytes per simulated rank
// after a continuation-form run: the per-rank footprint that bounds the
// maximum rank count in a fixed memory budget.
func BenchmarkScaleRankMemory(b *testing.B) {
	const ranks = 10_000
	for i := 0; i < b.N; i++ {
		workload.RunShardedCheckpoint(workload.ShardedConfig{
			Scale: workload.ScaleConfig{
				Ranks: ranks, BytesPerRank: 256 << 10, Steps: 1,
				TransferSize: 256 << 10, RanksPerNode: 64, StripeCount: 1,
			},
			Shards: 1,
			Seed:   12,
		})
	}
}

// BenchmarkShardedCheckpoint reports the cost of the same workload split
// across 4 ParallelGroup shards at the default worker count. Output is
// byte-identical to the sequential (Workers=1) execution by contract.
func BenchmarkShardedCheckpoint(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := workload.RunShardedCheckpoint(workload.ShardedConfig{
			Scale: workload.ScaleConfig{
				Ranks: 10_000, BytesPerRank: 1 << 20, Steps: 1,
				TransferSize: 1 << 20, RanksPerNode: 64, StripeCount: 1,
			},
			Shards: 4,
			Seed:   13,
		})
		if rep.IOErrors != 0 {
			b.Fatalf("I/O errors: %d", rep.IOErrors)
		}
		b.ReportMetric(float64(rep.Events), "events/op")
	}
}

// BenchmarkShardedScale is the single-simulation multi-core scaling curve:
// the same 8-shard checkpoint at 1, 2, 4, 8, and 16 persistent workers.
// Wall-clock per op across the sub-benchmarks is the speedup curve (flat
// when the host exposes fewer cores than workers); output is identical at
// every point by the ParallelGroup contract. Rank count is CI-capped; the
// EXPERIMENTS.md runbook records the 100k-rank sweep via
// `simfs -workers-sweep`.
func BenchmarkShardedScale(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var windows uint64
			for i := 0; i < b.N; i++ {
				rep := workload.RunShardedCheckpoint(workload.ShardedConfig{
					Scale: workload.ScaleConfig{
						Ranks: 10_000, BytesPerRank: 1 << 20, Steps: 1,
						TransferSize: 1 << 20, RanksPerNode: 64, StripeCount: 1,
					},
					Shards:  8,
					Workers: workers,
					Seed:    13,
				})
				if rep.IOErrors != 0 {
					b.Fatalf("I/O errors: %d", rep.IOErrors)
				}
				windows = rep.Windows
			}
			b.ReportMetric(float64(windows), "windows/op")
		})
	}
}
