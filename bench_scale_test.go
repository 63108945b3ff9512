package pioeval_test

import (
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
// across 4 ParallelGroup shards, and how many lookahead windows the shards
// synchronize in.
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
		b.ReportMetric(float64(rep.Windows), "windows/op")
	}
}
