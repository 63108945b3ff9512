package pioeval_test

import (
	"fmt"
	"testing"

	"pioeval/internal/burstbuffer"
	"pioeval/internal/des"
	"pioeval/internal/pfs"
	"pioeval/internal/sched"
	"pioeval/internal/workload"
)

// BenchmarkAblationAggregators sweeps the collective-buffering aggregator
// count (cb_nodes) for an 8-rank strided write — the key ROMIO tunable.
func BenchmarkAblationAggregators(b *testing.B) {
	for _, agg := range []int{1, 2, 4, 8} {
		agg := agg
		b.Run(fmt.Sprintf("cb_nodes=%d", agg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := des.NewEngine(301)
				h := workload.NewHarness(e, pfs.New(e, hddCluster()), 8, "agg", nil)
				// Collective path is exercised through mpiio hints via the
				// IOR generator's Collective mode; override hints by
				// running the generator with a custom-stripe config and
				// reporting bandwidth per aggregator count.
				rep := runCollectiveIOR(e, h, agg)
				b.ReportMetric(rep, "MB/s")
			}
		})
	}
}

// runCollectiveIOR runs a strided collective write with cbNodes aggregators
// and returns the write bandwidth. It reimplements the IOR collective path
// so the hint can vary.
func runCollectiveIOR(e *des.Engine, h *workload.Harness, cbNodes int) float64 {
	rep := workload.RunIORWithHints(h, workload.IORConfig{
		Ranks: 8, BlockSize: 2 << 20, TransferSize: 32 << 10,
		SharedFile: true, Pattern: workload.Strided, Collective: true,
	}, cbNodes)
	return rep.WriteMBps
}

// BenchmarkAblationBurstBufferCapacity sweeps the burst-buffer capacity
// against a fixed 64 MB burst: an undersized buffer stalls the producer and
// erodes the absorption advantage.
func BenchmarkAblationBurstBufferCapacity(b *testing.B) {
	const burst = 64 << 20
	for _, capMB := range []int64{8, 32, 128} {
		capMB := capMB
		b.Run(fmt.Sprintf("cap=%dMB", capMB), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := burstbuffer.Config{Capacity: capMB << 20, DrainWorkers: 2}
				absorbed, st := bbCheckpoint(b, 302, cfg, burst, 4<<20)
				if st.LostBytes != 0 {
					b.Fatalf("lost %d bytes in the drain: %v", st.LostBytes, st.LastDrainError)
				}
				b.ReportMetric(absorbed.Seconds()*1e3, "absorb_ms")
				b.ReportMetric(float64(st.Stalls), "stalls")
			}
		})
	}
}

// BenchmarkAblationStripeCount sweeps the stripe count for two workload
// shapes: a bulk checkpoint (wants wide stripes) and DL-style random small
// reads (insensitive or worse with width due to per-OST latency).
func BenchmarkAblationStripeCount(b *testing.B) {
	for _, stripes := range []int{1, 4, 8} {
		stripes := stripes
		b.Run(fmt.Sprintf("checkpoint/stripes=%d", stripes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := des.NewEngine(303)
				h := workload.NewHarness(e, pfs.New(e, hddCluster()), 4, "st", nil)
				rep := workload.RunIOR(h, workload.IORConfig{
					Ranks: 4, BlockSize: 16 << 20, TransferSize: 4 << 20,
					SharedFile: false, StripeCount: stripes, StripeSize: 1 << 20,
				})
				b.ReportMetric(rep.WriteMBps, "MB/s")
			}
		})
		b.Run(fmt.Sprintf("dlrandom/stripes=%d", stripes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := des.NewEngine(304)
				cfg := hddCluster()
				cfg.DefaultStripeCount = stripes
				fs := pfs.New(e, cfg)
				h := workload.NewHarness(e, fs, 4, "dl", nil)
				rep := workload.RunDL(h, workload.DLConfig{
					Workers: 4, Samples: 256, SampleSize: 64 << 10,
					SamplesPerFile: 64, Epochs: 1, Shuffle: true,
				})
				b.ReportMetric(rep.ReadMBps, "MB/s")
			}
		})
	}
}

// BenchmarkAblationSchedulerPolicy compares FCFS and EASY backfill on a
// mixed job stream — the workload-manager substrate's design choice.
func BenchmarkAblationSchedulerPolicy(b *testing.B) {
	mkJobs := func() []sched.Job {
		var jobs []sched.Job
		for i := 0; i < 40; i++ {
			nodes := 1 << (i % 5)
			rt := des.Time(5+i%37) * des.Minute
			jobs = append(jobs, sched.Job{
				ID:       fmt.Sprintf("j%d", i),
				Submit:   des.Time(i%13) * 7 * des.Minute,
				Nodes:    nodes,
				Walltime: rt,
				Runtime:  rt,
			})
		}
		return jobs
	}
	for _, pol := range []sched.Policy{sched.FCFS, sched.EASYBackfill} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				log := sched.Simulate(mkJobs(), 16, pol)
				b.ReportMetric(sched.Makespan(log).Seconds()/3600, "makespan_h")
				b.ReportMetric(sched.AvgWait(log).Seconds()/60, "avgwait_min")
				b.ReportMetric(sched.Utilization(log, 16)*100, "util_pct")
			}
		})
	}
}

// BenchmarkPFSWriteScaling reports aggregate write bandwidth as client
// count grows — the baseline scaling series any storage paper plots.
func BenchmarkPFSWriteScaling(b *testing.B) {
	for _, clients := range []int{1, 2, 4, 8, 16} {
		clients := clients
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := des.NewEngine(305)
				h := workload.NewHarness(e, pfs.New(e, hddCluster()), clients, "sc", nil)
				rep := workload.RunIOR(h, workload.IORConfig{
					Ranks: clients, BlockSize: 8 << 20, TransferSize: 1 << 20,
					SharedFile: false,
				})
				b.ReportMetric(rep.WriteMBps, "MB/s")
			}
		})
	}
}

// BenchmarkAblationLayoutPolicy compares round-robin and least-loaded OST
// allocation under a skewed file-size distribution, reporting the resulting
// load imbalance (max/mean OST bytes; 1.0 is perfect).
func BenchmarkAblationLayoutPolicy(b *testing.B) {
	imbalance := func(policy pfs.LayoutPolicy) float64 {
		e := des.NewEngine(306)
		cfg := hddCluster()
		cfg.Layout = policy
		fs := pfs.New(e, cfg)
		c := fs.NewClient("cn0")
		e.Spawn("app", func(p *des.Proc) {
			for i := 0; i < 64; i++ {
				size := int64(256 << 10)
				if i%8 == 0 {
					size = 16 << 20
				}
				h, err := c.Create(p, fmt.Sprintf("/f%d", i), 1, 1<<20)
				if err != nil {
					return
				}
				h.Write(p, 0, size)
				h.Close(p)
			}
		})
		e.Run(des.MaxTime)
		var max, sum float64
		n := 0
		for _, st := range fs.OSTStats() {
			bw := float64(st.BytesWritten)
			if bw > max {
				max = bw
			}
			sum += bw
			n++
		}
		return max / (sum / float64(n))
	}
	for i := 0; i < b.N; i++ {
		rr := imbalance(pfs.RoundRobin)
		ll := imbalance(pfs.LeastLoaded)
		if ll >= rr {
			b.Fatalf("least-loaded imbalance %.2f should beat round-robin %.2f", ll, rr)
		}
		b.ReportMetric(rr, "roundrobin_imbal")
		b.ReportMetric(ll, "leastloaded_imbal")
	}
}

// BenchmarkParallelDES measures the conservative parallel runner on a
// partitioned simulation (wall-clock ns/op; simulated results are identical
// to sequential execution by construction).
func BenchmarkParallelDES(b *testing.B) {
	build := func() *des.ParallelGroup {
		engines := make([]*des.Engine, 4)
		for i := range engines {
			engines[i] = des.NewEngine(int64(i))
			r := des.NewResource(engines[i], "disk", 1)
			for j := 0; j < 200; j++ {
				e := engines[i]
				e.Spawn("u", func(p *des.Proc) {
					p.Wait(e.RNG().Uniform("arr", 0, des.Millisecond))
					svc := e.RNG().Exponential("svc", 50*des.Microsecond)
					r.Acquire(p)
					p.Wait(svc)
					r.Release()
				})
			}
		}
		return des.NewParallelGroup(10*des.Microsecond, engines...)
	}
	for i := 0; i < b.N; i++ {
		g := build()
		end := g.Run(des.MaxTime)
		if end <= 0 {
			b.Fatal("no progress")
		}
	}
}

// BenchmarkAblationReadahead sweeps client readahead for two access shapes:
// interleaved sequential streams (benefits) and random access (amplifies).
func BenchmarkAblationReadahead(b *testing.B) {
	interleaved := func(ra int64) des.Time {
		cfg := hddCluster()
		cfg.NumOSS, cfg.OSTsPerOSS = 1, 1
		cfg.ClientReadahead = ra
		e := des.NewEngine(307)
		fs := pfs.New(e, cfg)
		for i := 0; i < 2; i++ {
			i := i
			c := fs.NewClient(fmt.Sprintf("ra%d", i))
			e.Spawn("rd", func(p *des.Proc) {
				h, _ := c.Create(p, fmt.Sprintf("/f%d", i), 1, 1<<20)
				h.Write(p, 0, 8<<20)
				for off := int64(0); off < 8<<20; off += 64 << 10 {
					h.Read(p, off, 64<<10)
				}
				h.Close(p)
			})
		}
		return e.Run(des.MaxTime)
	}
	random := func(ra int64) des.Time {
		cfg := hddCluster()
		cfg.ClientReadahead = ra
		e := des.NewEngine(308)
		fs := pfs.New(e, cfg)
		c := fs.NewClient("ra")
		e.Spawn("rd", func(p *des.Proc) {
			h, _ := c.Create(p, "/f", 1, 1<<20)
			h.Write(p, 0, 16<<20)
			rng := e.RNG().Stream("r")
			for i := 0; i < 64; i++ {
				h.Read(p, rng.Int63n(16<<20-64<<10), 64<<10)
			}
			h.Close(p)
		})
		return e.Run(des.MaxTime)
	}
	for i := 0; i < b.N; i++ {
		seqOff, seqOn := interleaved(0), interleaved(4<<20)
		rndOff, rndOn := random(0), random(4<<20)
		if seqOn >= seqOff {
			b.Fatalf("readahead should help interleaved streams: %v vs %v", seqOn, seqOff)
		}
		if rndOn <= rndOff {
			b.Fatalf("readahead should hurt random access: %v vs %v", rndOn, rndOff)
		}
		b.ReportMetric(float64(seqOff)/float64(seqOn), "seq_speedup")
		b.ReportMetric(float64(rndOn)/float64(rndOff), "rnd_slowdown")
	}
}

// BenchmarkFailureInjectionStraggler degrades one of eight OSTs and
// measures the striped-write tail-latency amplification, plus whether the
// server-side utilization stats identify the culprit.
func BenchmarkFailureInjectionStraggler(b *testing.B) {
	run := func(slowdown float64) (des.Time, int) {
		cfg := ssdCluster()
		e := des.NewEngine(309)
		fs := pfs.New(e, cfg)
		if slowdown > 1 {
			fs.InjectOSTSlowdown(3, slowdown)
		}
		c := fs.NewClient("cn0")
		var d des.Time
		e.Spawn("w", func(p *des.Proc) {
			h, _ := c.Create(p, "/f", 8, 1<<20)
			s := p.Now()
			h.Write(p, 0, 64<<20)
			d = p.Now() - s
			h.Close(p)
		})
		e.Run(des.MaxTime)
		worst, worstU := -1, 0.0
		for _, st := range fs.OSTStats() {
			if st.Utilization > worstU {
				worst, worstU = st.ID, st.Utilization
			}
		}
		return d, worst
	}
	for i := 0; i < b.N; i++ {
		healthy, _ := run(1)
		degraded, culprit := run(8)
		if degraded <= healthy {
			b.Fatal("straggler had no effect")
		}
		if culprit != 3 {
			b.Fatalf("server stats blamed OST %d, want 3", culprit)
		}
		b.ReportMetric(float64(degraded)/float64(healthy), "slowdown_x")
		b.ReportMetric(1, "culprit_found")
	}
}

// BenchmarkMDSThreadScaling sweeps metadata-server concurrency under an
// mdtest load — the metadata-bottleneck series behind §IV-A1's "metadata
// performance can be a limiting factor".
func BenchmarkMDSThreadScaling(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8, 16} {
		threads := threads
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := des.NewEngine(310)
				cfg := ssdCluster()
				cfg.MDSThreads = threads
				h := workload.NewHarness(e, pfs.New(e, cfg), 8, "md", nil)
				rep := workload.RunMDTest(h, workload.MDTestConfig{Ranks: 8, FilesPerRank: 64})
				b.ReportMetric(rep.CreatesPerS, "creates/s")
				b.ReportMetric(rep.StatsPerS, "stats/s")
			}
		})
	}
}

// BenchmarkDLWorkerScaling sweeps data-loader workers for the shuffled DL
// input pipeline: random small reads saturate the HDD OSTs quickly, so
// adding workers yields diminishing samples/s — the §V-B story again, seen
// as a scaling curve.
func BenchmarkDLWorkerScaling(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := des.NewEngine(311)
				h := workload.NewHarness(e, pfs.New(e, hddCluster()), workers, "dls", nil)
				rep := workload.RunDL(h, workload.DLConfig{
					Workers: workers, Samples: 512, SampleSize: 64 << 10,
					SamplesPerFile: 128, Epochs: 1, Shuffle: true,
				})
				b.ReportMetric(rep.SamplesPerSec, "samples/s")
			}
		})
	}
}
