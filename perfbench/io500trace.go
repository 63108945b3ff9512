package main

import (
	"fmt"

	"pioeval/internal/campaign"
	"pioeval/internal/des"
	"pioeval/internal/io500"
	"pioeval/internal/mpi"
	"pioeval/internal/pfs"
	"pioeval/internal/posixio"
	"pioeval/internal/reduce"
	"pioeval/internal/storage"
	"pioeval/internal/workload"
)

// tracedIO500 rebuilds io500.Run's five steps from the same public
// constructors, with observers and the pass-through stage on every step,
// and returns a unit whose digest must equal the untraced Result's.
func tracedIO500(cfg io500.Config) (*unit, *layerStats, error) {
	ls := newLayerStats()
	steps := []func(io500.Config, *layerStats) ([]io500.Phase, []string, error){
		ioStepIorEasy, ioStepIorHard, ioStepMdtestEasy, ioStepMdtestHard, ioStepFind,
	}
	byName := map[string]io500.Phase{}
	res := &io500.Result{Config: cfg}
	for _, step := range steps {
		phases, vio, err := step(cfg, ls)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range phases {
			byName[p.Name] = p
		}
		res.Violations = append(res.Violations, vio...)
	}
	for _, name := range io500.PhaseOrder {
		p, ok := byName[name]
		if !ok {
			return nil, nil, fmt.Errorf("traced io500: phase %s missing", name)
		}
		res.Phases = append(res.Phases, p)
	}
	res.BWScore, res.MDScore, res.Score = io500.Score(res.Values())
	u := &unit{}
	if err := io500Check(u, res); err != nil {
		return nil, nil, err
	}
	return u, ls, nil
}

// ioStep is one step's traced stack, built as io500's newStep builds it.
type ioStep struct {
	st *simTrace
	h  *workload.Harness
}

func newIOStep(cfg io500.Config) (*ioStep, error) {
	e := des.NewEngine(cfg.Seed)
	fs := pfs.New(e, campaign.ClusterConfig(campaign.Point{
		Ranks: cfg.Ranks, Device: cfg.Device, StripeCount: cfg.StripeCount, StripeSize: cfg.StripeSize,
	}))
	pr, err := storage.NewProvider(e, fs, cfg.Tier, storage.ProviderConfig{})
	if err != nil {
		return nil, err
	}
	if cfg.Compress != "" {
		comp, err := reduce.New(cfg.Compress)
		if err != nil {
			return nil, err
		}
		pr.Push(comp)
	}
	st := newSimTrace(e, fs, pr, "cn")
	st.stage = newPassStage()
	pr.Push(st.stage) // outermost: it sees exactly what posixio asks of storage
	return &ioStep{st: st, h: workload.NewHarnessOn(e, fs, cfg.Ranks, "cn", st.col, pr)}, nil
}

// finish folds the step into ls and returns io500's per-step violations.
func (s *ioStep) finish(step string, ls *layerStats) []string {
	s.st.finish(ls)
	if s.h.FinalizeErr != nil {
		return []string{fmt.Sprintf("%s: tier-finalize: %v", step, s.h.FinalizeErr)}
	}
	return nil
}

func gibPerS(bytes int64, t des.Time) float64 {
	if t <= 0 {
		return 0
	}
	return float64(bytes) / float64(1<<30) / t.Seconds()
}

func kiops(ops int64, t des.Time) float64 {
	if t <= 0 {
		return 0
	}
	return float64(ops) / 1e3 / t.Seconds()
}

func ioStepIorEasy(cfg io500.Config, ls *layerStats) ([]io500.Phase, []string, error) {
	s, err := newIOStep(cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := workload.RunIOR(s.h, workload.IORConfig{
		Ranks: cfg.Ranks, BlockSize: cfg.EasyBlock, TransferSize: cfg.EasyXfer,
		Segments: 1, SharedFile: false, Pattern: workload.Sequential,
		ReadBack: true, Collective: false,
	})
	return []io500.Phase{
		{Name: io500.IorEasyWrite, Kind: io500.KindBW, Bytes: rep.TotalBytes,
			Seconds: rep.WriteTime.Seconds(), Value: gibPerS(rep.TotalBytes, rep.WriteTime)},
		{Name: io500.IorEasyRead, Kind: io500.KindBW, Bytes: rep.TotalBytes,
			Seconds: rep.ReadTime.Seconds(), Value: gibPerS(rep.TotalBytes, rep.ReadTime)},
	}, s.finish("ior-easy", ls), nil
}

func ioStepIorHard(cfg io500.Config, ls *layerStats) ([]io500.Phase, []string, error) {
	s, err := newIOStep(cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := workload.RunIOR(s.h, workload.IORConfig{
		Ranks: cfg.Ranks, BlockSize: cfg.HardXfer * int64(cfg.HardOps), TransferSize: cfg.HardXfer,
		Segments: 1, SharedFile: true, Pattern: workload.Strided,
		ReadBack: true, Collective: true,
	})
	return []io500.Phase{
		{Name: io500.IorHardWrite, Kind: io500.KindBW, Bytes: rep.TotalBytes,
			Seconds: rep.WriteTime.Seconds(), Value: gibPerS(rep.TotalBytes, rep.WriteTime)},
		{Name: io500.IorHardRead, Kind: io500.KindBW, Bytes: rep.TotalBytes,
			Seconds: rep.ReadTime.Seconds(), Value: gibPerS(rep.TotalBytes, rep.ReadTime)},
	}, s.finish("ior-hard", ls), nil
}

func ioStepMdtestEasy(cfg io500.Config, ls *layerStats) ([]io500.Phase, []string, error) {
	s, err := newIOStep(cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := workload.RunMDTest(s.h, workload.MDTestConfig{
		Ranks: cfg.Ranks, FilesPerRank: cfg.EasyFiles,
		Phases: []string{workload.MDPhaseCreate, workload.MDPhaseStat, workload.MDPhaseDelete},
	})
	ops := int64(rep.TotalFiles)
	return []io500.Phase{
		{Name: io500.MdtestEasyWrite, Kind: io500.KindMD, Ops: ops,
			Seconds: rep.CreateTime.Seconds(), Value: kiops(ops, rep.CreateTime)},
		{Name: io500.MdtestEasyStat, Kind: io500.KindMD, Ops: ops,
			Seconds: rep.StatTime.Seconds(), Value: kiops(ops, rep.StatTime)},
		{Name: io500.MdtestEasyDelete, Kind: io500.KindMD, Ops: ops,
			Seconds: rep.RemoveTime.Seconds(), Value: kiops(ops, rep.RemoveTime)},
	}, s.finish("mdtest-easy", ls), nil
}

func ioStepMdtestHard(cfg io500.Config, ls *layerStats) ([]io500.Phase, []string, error) {
	s, err := newIOStep(cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := workload.RunMDTest(s.h, workload.MDTestConfig{
		Ranks: cfg.Ranks, FilesPerRank: cfg.HardFiles, WriteBytes: cfg.HardFileBytes,
		BasePath: "/mdtest-hard",
		Phases: []string{workload.MDPhaseCreate, workload.MDPhaseStat,
			workload.MDPhaseRead, workload.MDPhaseDelete},
	})
	ops := int64(rep.TotalFiles)
	return []io500.Phase{
		{Name: io500.MdtestHardWrite, Kind: io500.KindMD, Ops: ops,
			Seconds: rep.CreateTime.Seconds(), Value: kiops(ops, rep.CreateTime)},
		{Name: io500.MdtestHardRead, Kind: io500.KindMD, Ops: ops,
			Seconds: rep.ReadTime.Seconds(), Value: kiops(ops, rep.ReadTime)},
		{Name: io500.MdtestHardStat, Kind: io500.KindMD, Ops: ops,
			Seconds: rep.StatTime.Seconds(), Value: kiops(ops, rep.StatTime)},
		{Name: io500.MdtestHardDelete, Kind: io500.KindMD, Ops: ops,
			Seconds: rep.RemoveTime.Seconds(), Value: kiops(ops, rep.RemoveTime)},
	}, s.finish("mdtest-hard", ls), nil
}

// ioStepFind is io500's find step: an untimed population of both mdtest
// trees, then a timed readdir+stat walk counting size matches.
func ioStepFind(cfg io500.Config, ls *layerStats) ([]io500.Phase, []string, error) {
	s, err := newIOStep(cfg)
	if err != nil {
		return nil, nil, err
	}
	var fStart, fEnd des.Time
	perOps := make([]int64, cfg.Ranks)
	perFound := make([]int64, cfg.Ranks)
	trees := []struct {
		base  string
		files int
		bytes int64
	}{
		{"/find-easy", cfg.EasyFiles, 0},
		{"/find-hard", cfg.HardFiles, cfg.HardFileBytes},
	}
	s.h.Run(func(r *mpi.Rank, env *posixio.Env) {
		p := r.Proc()
		for _, tr := range trees {
			_ = env.Mkdir(p, tr.base)
			dir := fmt.Sprintf("%s/rank%d", tr.base, r.ID())
			_ = env.Mkdir(p, dir)
			for i := 0; i < tr.files; i++ {
				fd, err := env.Open(p, fmt.Sprintf("%s/f%d", dir, i), posixio.OCreate|posixio.OExcl)
				if err != nil {
					continue
				}
				if tr.bytes > 0 {
					_, _ = env.Write(p, fd, tr.bytes)
					_ = env.Fsync(p, fd)
				}
				_ = env.Close(p, fd)
			}
		}
		r.Barrier()
		if r.ID() == 0 {
			fStart = r.Now()
		}
		for _, tr := range trees {
			dir := fmt.Sprintf("%s/rank%d", tr.base, r.ID())
			names, err := env.Readdir(p, dir)
			perOps[r.ID()]++
			if err != nil {
				continue
			}
			for _, name := range names {
				st, err := env.Stat(p, name)
				perOps[r.ID()]++
				if err == nil && !st.IsDir && st.Size >= cfg.HardFileBytes {
					perFound[r.ID()]++
				}
			}
		}
		r.Barrier()
		if r.ID() == 0 {
			fEnd = r.Now()
		}
	})
	var ops, found int64
	for i := range perOps {
		ops += perOps[i]
		found += perFound[i]
	}
	t := fEnd - fStart
	return []io500.Phase{
		{Name: io500.Find, Kind: io500.KindMD, Ops: ops, Found: found,
			Seconds: t.Seconds(), Value: kiops(ops, t)},
	}, s.finish("find", ls), nil
}
