package validate

import (
	"fmt"
	"math"

	"pioeval/internal/blockdev"
	"pioeval/internal/burstbuffer"
	"pioeval/internal/des"
	"pioeval/internal/mpi"
	"pioeval/internal/mpiio"
	"pioeval/internal/pfs"
	"pioeval/internal/posixio"
	"pioeval/internal/stack"
	"pioeval/internal/storage"
)

// OracleResult compares one simulated metric against its closed-form
// expectation.
type OracleResult struct {
	// Name identifies the oracle scenario.
	Name string
	// Unit labels Expected/Simulated (e.g. "MB/s", "bytes", "s").
	Unit string
	// Expected is the analytic prediction, derived from the same model
	// parameters the simulator uses (never hardcoded constants).
	Expected float64
	// Simulated is what the DES produced.
	Simulated float64
	// Tol is the relative tolerance; 0 demands exact equality.
	Tol float64
	// Detail explains the expectation's derivation.
	Detail string
}

// RelError returns |simulated-expected| / |expected| (0 when both are 0).
func (r OracleResult) RelError() float64 {
	if r.Expected == 0 {
		if r.Simulated == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(r.Simulated-r.Expected) / math.Abs(r.Expected)
}

// Pass reports whether the simulated value is within tolerance.
func (r OracleResult) Pass() bool { return r.RelError() <= r.Tol }

// String renders one oracle line for reports.
func (r OracleResult) String() string {
	verdict := "PASS"
	if !r.Pass() {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s %-28s simulated %.4g %s, expected %.4g %s (err %.2f%%, tol %.0f%%)",
		verdict, r.Name, r.Simulated, r.Unit, r.Expected, r.Unit, r.RelError()*100, r.Tol*100)
}

// RunOracles executes the full analytic oracle suite with the given engine
// seed. The fault-free scenarios are deterministic, so the seed only
// matters for reproducing reports.
func RunOracles(seed int64) []OracleResult {
	return []OracleResult{
		OracleSingleStream(seed),
		OracleStripedAggregate(seed),
		OracleCollectiveVolume(seed),
		OracleBurstBufferDrain(seed),
		OracleTieredDrain(seed),
		OracleCompressedStream(seed),
	}
}

// devSecPerByte extracts a model's marginal per-byte transfer cost by
// differencing two sequential service times, cancelling the latency term.
// Model-agnostic: works for any Model whose transfer cost is linear in
// size, which all shipped models are.
func devSecPerByte(m blockdev.Model, write bool) float64 {
	const probe = 1 << 20
	t1 := blockdev.ServiceTime(m, blockdev.Request{Offset: 0, Size: probe, Write: write}, 0)
	t2 := blockdev.ServiceTime(m, blockdev.Request{Offset: 0, Size: 2 * probe, Write: write}, 0)
	return (t2 - t1).Seconds() / float64(probe)
}

// OracleSingleStream checks that one client writing a large sequential
// stream to a single-OST file achieves the bandwidth of the serialized
// network+device pipeline: the client blocks on each RPC, so per byte it
// pays 1/linkBW + 1/deviceBW. Sequential offsets mean the device model
// charges no seeks after the first access.
func OracleSingleStream(seed int64) OracleResult {
	const (
		total = int64(64 << 20)
		chunk = int64(4 << 20)
	)
	cfg := pfs.DefaultConfig()
	cfg.NumOSS, cfg.OSTsPerOSS = 1, 1
	cfg.NumIONodes = 0
	cfg.DefaultStripeCount = 1

	e := des.NewEngine(seed)
	fs := pfs.New(e, cfg)
	c := fs.NewClient("cn0")
	var elapsed des.Time
	e.Spawn("oracle.single-stream", func(p *des.Proc) {
		h, err := c.Create(p, "/stream", 1, cfg.DefaultStripeSize)
		if err != nil {
			panic(fmt.Sprintf("validate: oracle create: %v", err))
		}
		start := p.Now()
		for off := int64(0); off < total; off += chunk {
			if err := h.Write(p, off, chunk); err != nil {
				panic(fmt.Sprintf("validate: oracle write: %v", err))
			}
		}
		elapsed = p.Now() - start
		_ = h.Close(p)
	})
	e.Run(des.MaxTime)

	dcfg := fs.Config()
	perByte := 1/float64(dcfg.ComputeFabric.LinkBandwidth) + devSecPerByte(dcfg.OSTDevice(), true)
	return OracleResult{
		Name:      "single-stream-bandwidth",
		Unit:      "MB/s",
		Expected:  1 / perByte / 1e6,
		Simulated: float64(total) / elapsed.Seconds() / 1e6,
		Tol:       0.05,
		Detail: fmt.Sprintf("1 rank, %d MiB sequential to a 1-OST file; expected bw = 1/(1/link + devPerByte) with per-RPC metadata overhead inside the tolerance",
			total>>20),
	}
}

// OracleStripedAggregate checks linear scaling: N ranks each writing their
// own single-OST file, with files round-robined onto N distinct OSTs on N
// distinct OSS nodes, must deliver N times the single-stream bandwidth —
// there is no shared bottleneck.
func OracleStripedAggregate(seed int64) OracleResult {
	const (
		ranks   = 4
		perRank = int64(32 << 20)
		chunk   = int64(4 << 20)
	)
	cfg := pfs.DefaultConfig()
	cfg.NumOSS, cfg.OSTsPerOSS = ranks, 1
	cfg.NumIONodes = 0
	cfg.DefaultStripeCount = 1

	e := des.NewEngine(seed)
	fs := pfs.New(e, cfg)
	var makespan des.Time
	for i := 0; i < ranks; i++ {
		c := fs.NewClient(fmt.Sprintf("cn%d", i))
		path := fmt.Sprintf("/rank%d", i)
		e.Spawn("oracle.striped", func(p *des.Proc) {
			h, err := c.Create(p, path, 1, cfg.DefaultStripeSize)
			if err != nil {
				panic(fmt.Sprintf("validate: oracle create: %v", err))
			}
			for off := int64(0); off < perRank; off += chunk {
				if err := h.Write(p, off, chunk); err != nil {
					panic(fmt.Sprintf("validate: oracle write: %v", err))
				}
			}
			_ = h.Close(p)
			if p.Now() > makespan {
				makespan = p.Now()
			}
		})
	}
	e.Run(des.MaxTime)

	dcfg := fs.Config()
	perByte := 1/float64(dcfg.ComputeFabric.LinkBandwidth) + devSecPerByte(dcfg.OSTDevice(), true)
	return OracleResult{
		Name:      "striped-aggregate-bandwidth",
		Unit:      "MB/s",
		Expected:  float64(ranks) / perByte / 1e6,
		Simulated: float64(ranks) * float64(perRank) / makespan.Seconds() / 1e6,
		Tol:       0.05,
		Detail: fmt.Sprintf("%d independent ranks on %d disjoint OSTs/OSS; aggregate must scale linearly over the single-stream rate",
			ranks, ranks),
	}
}

// OracleCollectiveVolume checks that two-phase collective aggregation
// conserves I/O volume exactly: with hole-free interleaved extents, the
// coalesced aggregator writes must deliver precisely the requested bytes
// to the OSTs — no loss, no inflation (holes would legitimately inflate).
func OracleCollectiveVolume(seed int64) OracleResult {
	const (
		ranks   = 4
		slice   = int64(256 << 10)
		nSlices = 16
	)
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	cfg.OSTDevice = func() blockdev.Model { return blockdev.DefaultSSD() }

	e := des.NewEngine(seed)
	fs := pfs.New(e, cfg)
	w := mpi.NewWorld(e, ranks, mpi.DefaultOptions())
	envs := make([]*posixio.Env, ranks)
	for i := range envs {
		envs[i] = posixio.NewEnv(storage.Direct(fs.NewClient(fmt.Sprintf("cn%d", i))), i, nil)
	}
	f := mpiio.NewFile(w, envs, "/coll", mpiio.Hints{CollNodes: 2}, nil)
	w.Spawn(func(r *mpi.Rank) {
		if err := f.Open(r); err != nil {
			panic(fmt.Sprintf("validate: oracle mpiio open: %v", err))
		}
		// Rank r writes slices r, r+ranks, r+2*ranks, ... of a fully
		// covered [0, ranks*nSlices*slice) region: interleaved, hole-free.
		exts := make([]mpiio.Extent, nSlices)
		for j := 0; j < nSlices; j++ {
			exts[j] = mpiio.Extent{
				Off:  int64(j)*int64(ranks)*slice + int64(r.ID())*slice,
				Size: slice,
			}
		}
		if err := f.WriteExtentsAll(r, exts); err != nil {
			panic(fmt.Sprintf("validate: oracle collective write: %v", err))
		}
		if err := f.Close(r); err != nil {
			panic(fmt.Sprintf("validate: oracle mpiio close: %v", err))
		}
	})
	e.Run(des.MaxTime)

	_, written := fs.TotalBytes()
	return OracleResult{
		Name:      "collective-volume-conservation",
		Unit:      "bytes",
		Expected:  float64(ranks * nSlices * int(slice)),
		Simulated: float64(written),
		Tol:       0,
		Detail: fmt.Sprintf("%d ranks × %d interleaved %d KiB slices, hole-free; OST bytes must equal requested bytes exactly",
			ranks, nSlices, slice>>10),
	}
}

// OracleBurstBufferDrain checks the drain pipeline: once a burst is staged,
// a single drain worker moves it to the PFS one segment at a time, paying
// SSD read + network + backing-device write serially per segment. Total
// time to fully drained is therefore the first segment's staging time plus
// the burst size times the summed per-byte costs.
func OracleBurstBufferDrain(seed int64) OracleResult {
	const (
		total = int64(32 << 20)
		seg   = int64(1 << 20)
	)
	cfg := pfs.DefaultConfig()
	cfg.NumOSS, cfg.OSTsPerOSS = 1, 1
	cfg.NumIONodes = 0
	cfg.DefaultStripeCount = 1

	e := des.NewEngine(seed)
	fs := pfs.New(e, cfg)
	bb := burstbuffer.New(e, fs, "bb0", burstbuffer.Config{})
	var drained des.Time
	e.Spawn("oracle.bb-drain", func(p *des.Proc) {
		for off := int64(0); off < total; off += seg {
			bb.Write(p, "/ckpt", off, seg)
		}
		bb.WaitDrained(p)
		drained = p.Now()
	})
	e.Run(des.MaxTime)
	if st := bb.Stats(); st.DrainErrors != 0 || st.Drained != total {
		panic(fmt.Sprintf("validate: oracle drain lost data: %+v", st))
	}

	dcfg := fs.Config()
	stage := blockdev.DefaultNVMe() // the zero burstbuffer.Config's staging device
	firstSeg := blockdev.ServiceTime(stage, blockdev.Request{Offset: 0, Size: seg, Write: true}, 0).Seconds()
	perByte := devSecPerByte(stage, false) +
		1/float64(dcfg.ComputeFabric.LinkBandwidth) +
		devSecPerByte(dcfg.OSTDevice(), true)
	return OracleResult{
		Name:      "burst-buffer-drain-time",
		Unit:      "s",
		Expected:  firstSeg + float64(total)*perByte,
		Simulated: drained.Seconds(),
		Tol:       0.05,
		Detail: fmt.Sprintf("%d MiB burst in %d KiB segments, 1 drain worker; drain = first-segment staging + bytes × (ssdRead + link + devWrite)",
			total>>20, seg>>10),
	}
}

// OracleCompressedStream checks the data-reduction stage's cost model:
// one rank streaming through a compressor over the direct tier pays, per
// chunk, the compression CPU time plus the shrunken physical transfer
// (ceil(chunk/ratio) bytes through the serialized network+device
// pipeline). Elapsed time must match that closed form — the stage may
// add only per-RPC metadata noise inside the tolerance.
func OracleCompressedStream(seed int64) OracleResult {
	const (
		total = int64(64 << 20)
		chunk = int64(4 << 20)
	)
	cfg := pfs.DefaultConfig()
	cfg.NumOSS, cfg.OSTsPerOSS = 1, 1
	cfg.NumIONodes = 0
	cfg.DefaultStripeCount = 1

	s, err := stack.New(stack.Config{Cluster: cfg, Seed: seed, Compress: "lz"})
	if err != nil {
		panic(fmt.Sprintf("validate: oracle stack: %v", err))
	}
	e, fs, comp := s.E, s.FS, s.Stage
	env := posixio.NewEnv(s.Provider.Target("cn0"), 0, nil)
	var elapsed des.Time
	e.Spawn("oracle.compressed-stream", func(p *des.Proc) {
		fd, err := env.Open(p, "/stream", posixio.OCreate)
		if err != nil {
			panic(fmt.Sprintf("validate: oracle compressed open: %v", err))
		}
		start := p.Now()
		for off := int64(0); off < total; off += chunk {
			if _, werr := env.Pwrite(p, fd, off, chunk); werr != nil {
				panic(fmt.Sprintf("validate: oracle compressed write: %v", werr))
			}
		}
		elapsed = p.Now() - start
		_ = env.Close(p, fd)
	})
	e.Run(des.MaxTime)

	m := comp.Model()
	st := comp.StageStats()
	if st.LogicalWritten != total {
		panic(fmt.Sprintf("validate: oracle compressed stage accounted %d of %d bytes", st.LogicalWritten, total))
	}
	physPerOp := math.Ceil(float64(chunk) / m.Ratio)
	cpuPerOp := (float64(chunk) + float64(m.RampBytes)) / (m.CompressMBps * 1e6)
	dcfg := fs.Config()
	perByte := 1/float64(dcfg.ComputeFabric.LinkBandwidth) + devSecPerByte(dcfg.OSTDevice(), true)
	perOp := cpuPerOp + physPerOp*perByte
	return OracleResult{
		Name:      "compressed-stream-bandwidth",
		Unit:      "MB/s",
		Expected:  float64(chunk) / perOp / 1e6,
		Simulated: float64(total) / elapsed.Seconds() / 1e6,
		Tol:       0.05,
		Detail: fmt.Sprintf("1 rank, %d MiB sequential through the %s stage (ratio %.2g) over direct; per chunk = compress CPU + ceil(chunk/ratio) x (1/link + devPerByte)",
			total>>20, m.Name, m.Ratio),
	}
}

// OracleTieredDrain checks the same drain pipeline as
// OracleBurstBufferDrain, but driven through the full layered path — a
// posixio.Env on a burst-buffer-tier storage.Target instead of direct
// Buffer calls. The POSIX fsync maps to WaitDrained, so time-to-fsync must
// match the closed-form drain expectation; the seam itself may add only
// metadata-RPC noise inside the tolerance.
func OracleTieredDrain(seed int64) OracleResult {
	const (
		total = int64(32 << 20)
		seg   = int64(1 << 20)
	)
	cfg := pfs.DefaultConfig()
	cfg.NumOSS, cfg.OSTsPerOSS = 1, 1
	cfg.NumIONodes = 0
	cfg.DefaultStripeCount = 1

	s, err := stack.New(stack.Config{Cluster: cfg, Seed: seed, Tier: storage.TierBB})
	if err != nil {
		panic(fmt.Sprintf("validate: oracle stack: %v", err))
	}
	e, fs, pr := s.E, s.FS, s.Provider
	env := posixio.NewEnv(pr.Target("cn0"), 0, nil)
	var drained des.Time
	e.Spawn("oracle.tiered-drain", func(p *des.Proc) {
		fd, err := env.Open(p, "/ckpt", posixio.OCreate)
		if err != nil {
			panic(fmt.Sprintf("validate: oracle tiered open: %v", err))
		}
		for off := int64(0); off < total; off += seg {
			if _, werr := env.Pwrite(p, fd, off, seg); werr != nil {
				panic(fmt.Sprintf("validate: oracle tiered write: %v", werr))
			}
		}
		if err := env.Fsync(p, fd); err != nil {
			panic(fmt.Sprintf("validate: oracle tiered fsync: %v", err))
		}
		drained = p.Now()
		_ = env.Close(p, fd)
	})
	e.Run(des.MaxTime)
	bb := pr.Buffers()[0]
	if st := bb.Stats(); st.DrainErrors != 0 || st.Drained != total || st.Used != 0 {
		panic(fmt.Sprintf("validate: oracle tiered drain lost data: %+v", st))
	}

	dcfg := fs.Config()
	stage := blockdev.DefaultNVMe() // the zero burstbuffer.Config's staging device
	firstSeg := blockdev.ServiceTime(stage, blockdev.Request{Offset: 0, Size: seg, Write: true}, 0).Seconds()
	perByte := devSecPerByte(stage, false) +
		1/float64(dcfg.ComputeFabric.LinkBandwidth) +
		devSecPerByte(dcfg.OSTDevice(), true)
	return OracleResult{
		Name:      "tiered-drain-time",
		Unit:      "s",
		Expected:  firstSeg + float64(total)*perByte,
		Simulated: drained.Seconds(),
		Tol:       0.05,
		Detail: fmt.Sprintf("%d MiB burst in %d KiB writes through posixio on the bb tier, 1 drain worker; fsync = WaitDrained must equal the analytic drain time",
			total>>20, seg>>10),
	}
}
