package pioeval_test

import (
	"testing"

	"pioeval/internal/blockdev"
	"pioeval/internal/burstbuffer"
	"pioeval/internal/core"
	"pioeval/internal/corpus"
	"pioeval/internal/des"
	"pioeval/internal/facility"
	"pioeval/internal/hdf"
	"pioeval/internal/iolang"
	"pioeval/internal/mpi"
	"pioeval/internal/mpiio"
	"pioeval/internal/pfs"
	"pioeval/internal/posixio"
	"pioeval/internal/storage"
	"pioeval/internal/trace"
	"pioeval/internal/workload"
)

// hddCluster returns the Figure-1 deployment with HDD-backed OSTs and no
// I/O-forwarding tier (flat network).
func hddCluster() pfs.Config {
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	return cfg
}

// ssdCluster swaps the OSTs for SATA-SSD models.
func ssdCluster() pfs.Config {
	cfg := hddCluster()
	cfg.OSTDevice = func() blockdev.Model { return blockdev.DefaultSSD() }
	return cfg
}

// bbCheckpoint creates /ckpt through a tier bb target on the HDD cluster,
// writes burst bytes to it in chunk-sized writes and closes it. It returns
// the time the application's checkpoint took and the burst buffer's
// counters once it has drained.
func bbCheckpoint(b *testing.B, seed int64, cfg burstbuffer.Config, burst, chunk int64) (des.Time, burstbuffer.Stats) {
	e := des.NewEngine(seed)
	pr, err := storage.NewProvider(e, pfs.New(e, hddCluster()), storage.TierBB, storage.ProviderConfig{BB: cfg})
	if err != nil {
		b.Fatal(err)
	}
	tgt := pr.Target("cn0")
	var absorbed des.Time
	e.Spawn("app", func(p *des.Proc) {
		if err := writeCheckpoint(p, tgt, burst, chunk); err != nil {
			b.Errorf("checkpoint: %v", err)
		}
		absorbed = p.Now()
		if err := pr.Finalize(p); err != nil {
			b.Errorf("drain: %v", err)
		}
	})
	e.Run(des.MaxTime)
	return absorbed, pr.Buffers()[0].Stats()
}

// writeCheckpoint creates /ckpt on tgt, writes burst bytes in chunk-sized
// writes and closes it.
func writeCheckpoint(p *des.Proc, tgt storage.Target, burst, chunk int64) error {
	h, err := tgt.Create(p, "/ckpt", 0, 0)
	if err != nil {
		return err
	}
	for off := int64(0); off < burst; off += chunk {
		if err := h.Write(p, off, chunk); err != nil {
			return err
		}
	}
	return h.Close(p)
}

// BenchmarkFig1BurstBuffer reproduces the Figure-1 architecture claim: the
// I/O-node SSD tier absorbs a bursty checkpoint far faster than the
// HDD-backed PFS, then drains asynchronously. Reported metrics:
// direct_ms, absorbed_ms, speedup.
func BenchmarkFig1BurstBuffer(b *testing.B) {
	const burst = 64 << 20
	for i := 0; i < b.N; i++ {
		// Direct to PFS.
		e1 := des.NewEngine(101)
		tgt := storage.Direct(pfs.New(e1, hddCluster()).NewClient("cn0"))
		var direct des.Time
		e1.Spawn("app", func(p *des.Proc) {
			if err := writeCheckpoint(p, tgt, burst, burst); err != nil {
				b.Errorf("checkpoint: %v", err)
			}
			direct = p.Now()
		})
		e1.Run(des.MaxTime)

		// Through the burst-buffer tier.
		absorbed, st := bbCheckpoint(b, 101, burstbuffer.Config{DrainWorkers: 2}, burst, burst)
		if st.Drained != burst {
			b.Fatalf("drained %d of %d bytes", st.Drained, burst)
		}
		b.ReportMetric(direct.Seconds()*1e3, "direct_ms")
		b.ReportMetric(absorbed.Seconds()*1e3, "absorbed_ms")
		b.ReportMetric(float64(direct)/float64(absorbed), "speedup")
	}
}

// BenchmarkFig2LayeredPath reproduces Figure 2: an application write
// traverses HDF -> MPI-IO -> POSIX -> PFS, with the multi-level tracer
// capturing records at every layer. Reported metrics: layer record counts
// and end-to-end bandwidth.
func BenchmarkFig2LayeredPath(b *testing.B) {
	const ranks = 4
	dims := []int64{ranks, 4096} // 4096 x 8B per rank
	for i := 0; i < b.N; i++ {
		e := des.NewEngine(102)
		fs := pfs.New(e, ssdCluster())
		col := trace.NewCollector()
		w := mpi.NewWorld(e, ranks, mpi.DefaultOptions())
		envs := make([]*posixio.Env, ranks)
		for r := range envs {
			envs[r] = posixio.NewEnv(storage.Direct(fs.NewClient(nodeName("fig2", r))), r, col)
		}
		mf := mpiio.NewFile(w, envs, "/exp.h5", mpiio.Hints{CollNodes: 2}, col)
		hf := hdf.NewFile(mf, col)
		w.Spawn(func(r *mpi.Rank) {
			if err := hf.Create(r); err != nil {
				b.Errorf("create: %v", err)
				return
			}
			ds, err := hf.CreateDataset(r, "/state", dims, 8)
			if err != nil {
				b.Errorf("dataset: %v", err)
				return
			}
			_ = ds.WriteSlabAll(r, []int64{int64(r.ID()), 0}, []int64{1, dims[1]})
			_ = hf.Close(r)
		})
		end := e.Run(des.MaxTime)
		recs := col.Records()
		hdfN := len(trace.ByLayer(recs, trace.LayerHDF))
		mpiioN := len(trace.ByLayer(recs, trace.LayerMPIIO))
		posixN := len(trace.ByLayer(recs, trace.LayerPOSIX))
		if hdfN == 0 || mpiioN == 0 || posixN == 0 {
			b.Fatalf("layer records: hdf=%d mpiio=%d posix=%d", hdfN, mpiioN, posixN)
		}
		bytes := int64(ranks) * dims[1] * 8
		b.ReportMetric(float64(hdfN), "hdf_recs")
		b.ReportMetric(float64(mpiioN), "mpiio_recs")
		b.ReportMetric(float64(posixN), "posix_recs")
		b.ReportMetric(float64(bytes)/1e6/end.Seconds(), "MB/s")
	}
}

func nodeName(prefix string, i int) string {
	return prefix + string(rune('a'+i))
}

// BenchmarkFig3CorpusDistribution regenerates Figure 3: the percentage
// distribution of the 51 surveyed papers over venue types and publishers.
func BenchmarkFig3CorpusDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if corpus.Count() != 51 {
			b.Fatal("corpus must contain the survey's 51 papers")
		}
		vt := corpus.ByVenueType()
		pub := corpus.ByPublisher()
		for _, s := range vt {
			switch s.Label {
			case "conference":
				b.ReportMetric(s.Percent, "conference_pct")
			case "journal":
				b.ReportMetric(s.Percent, "journal_pct")
			case "workshop":
				b.ReportMetric(s.Percent, "workshop_pct")
			}
		}
		for _, s := range pub {
			if s.Label == "IEEE" {
				b.ReportMetric(s.Percent, "ieee_pct")
			}
			if s.Label == "ACM" {
				b.ReportMetric(s.Percent, "acm_pct")
			}
		}
	}
}

// BenchmarkFig4EvalCycle runs the full three-phase evaluation cycle with
// feedback (Figure 4): measure on an SSD baseline, model, predict an HDD
// target, simulate, feed measurements back until the prediction converges.
// Reported metrics: iterations, first/last relative error.
func BenchmarkFig4EvalCycle(b *testing.B) {
	script := `
workload "fig4" {
    ranks 4
    loop 6 {
        compute 4ms
        write "/out" offset=rank*16MB size=4MB chunk=1MB
        read "/out" offset=rank*16MB size=1MB chunk=256KB
    }
}
`
	wl, err := iolang.Parse(script)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := core.RunCycle(core.CycleConfig{
			Seed:          104,
			Baseline:      ssdCluster(),
			Target:        hddCluster(),
			Source:        core.SyntheticSource{Workload: wl},
			MaxIterations: 4,
			Tolerance:     0.3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatalf("cycle did not converge: %+v", res.Iterations)
		}
		b.ReportMetric(float64(len(res.Iterations)), "iterations")
		b.ReportMetric(res.Iterations[0].RelError, "first_err")
		b.ReportMetric(res.Iterations[len(res.Iterations)-1].RelError, "final_err")
		b.ReportMetric(res.SkeletonRatio, "skel_ratio")
	}
}

// BenchmarkAblationTraceCodec compares the binary and JSON trace codecs on
// the same record stream (a design-choice ablation from DESIGN.md).
func BenchmarkAblationTraceCodec(b *testing.B) {
	e := des.NewEngine(105)
	fs := pfs.New(e, ssdCluster())
	col := trace.NewCollector()
	h := workload.NewHarness(e, fs, 4, "codec", col)
	workload.RunIOR(h, workload.IORConfig{Ranks: 4, BlockSize: 8 << 20, TransferSize: 256 << 10, ReadBack: true})
	recs := col.Records()
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sink countWriter
			if err := trace.WriteBinary(&sink, recs); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(sink)/float64(len(recs)), "bytes/rec")
		}
	})
	b.Run("json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sink countWriter
			if err := trace.WriteJSON(&sink, recs); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(sink)/float64(len(recs)), "bytes/rec")
		}
	})
}

// countWriter counts bytes written.
type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// BenchmarkFacilityMixedWorkloads runs the facility-scale simulation (the
// "storage system as a whole" view of §IV-B1): a scheduled job stream with
// a mixed workload over the shared PFS, analyzed from server-side logs
// alone. Reported: facility read fraction, scheduler utilization, and
// interference pairs found.
func BenchmarkFacilityMixedWorkloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := facility.Run(facility.Config{
			Seed: 106, Cluster: ssdCluster(), Jobs: 12,
			Mix: map[facility.JobKind]float64{
				facility.Checkpoint: 1, facility.DLTraining: 1,
				facility.Analytics: 1, facility.MetaHeavy: 1,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Jobs) != 12 {
			b.Fatalf("jobs = %d", len(res.Jobs))
		}
		b.ReportMetric(res.ReadFraction, "read_frac")
		b.ReportMetric(res.Utilization*100, "sched_util_pct")
		b.ReportMetric(float64(len(res.Interferences)), "interferences")
		b.ReportMetric(float64(res.MDSOps), "mds_ops")
	}
}
