package workload

import (
	"fmt"
	"strings"

	"pioeval/internal/des"
	"pioeval/internal/mpi"
	"pioeval/internal/posixio"
)

// MDTest phase names, in the canonical execution order. Create always
// runs (the later phases need the files to exist); the rest are
// individually selectable, mirroring mdtest's -C/-T/-E/-r phase flags.
const (
	MDPhaseCreate = "create"
	MDPhaseStat   = "stat"
	MDPhaseRead   = "read"
	MDPhaseDelete = "delete"
)

// mdPhaseOrder is the canonical phase sequence.
var mdPhaseOrder = []string{MDPhaseCreate, MDPhaseStat, MDPhaseRead, MDPhaseDelete}

// ParseMDPhases parses a comma-separated phase list ("create,stat,delete")
// into the canonical order, rejecting unknown names and duplicates. The
// create phase is mandatory: every other phase operates on the files it
// made. An empty string selects the default set (create, stat, delete).
func ParseMDPhases(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return []string{MDPhaseCreate, MDPhaseStat, MDPhaseDelete}, nil
	}
	want := map[string]bool{}
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		switch f {
		case MDPhaseCreate, MDPhaseStat, MDPhaseRead, MDPhaseDelete:
			if want[f] {
				return nil, fmt.Errorf("workload: duplicate mdtest phase %q", f)
			}
			want[f] = true
		default:
			return nil, fmt.Errorf("workload: unknown mdtest phase %q (want create, stat, read, or delete)", f)
		}
	}
	if !want[MDPhaseCreate] {
		return nil, fmt.Errorf("workload: mdtest phase list must include create (the other phases operate on its files)")
	}
	var out []string
	for _, p := range mdPhaseOrder {
		if want[p] {
			out = append(out, p)
		}
	}
	return out, nil
}

// MDTestConfig mirrors the mdtest parameter space: per-rank file
// create/stat/read/delete in private directories.
type MDTestConfig struct {
	Ranks        int
	FilesPerRank int
	// WriteBytes, when > 0, writes that many bytes into each created file
	// (mdtest -w); the read phase reads the same amount back (mdtest -e).
	WriteBytes int64
	BasePath   string
	// Phases selects which timed phases run, in canonical order
	// (create, stat, read, delete). Empty selects create, stat, delete —
	// the historical default. Create always runs even if omitted.
	Phases []string
}

func (c MDTestConfig) withDefaults() MDTestConfig {
	if c.Ranks <= 0 {
		c.Ranks = 4
	}
	if c.FilesPerRank <= 0 {
		c.FilesPerRank = 64
	}
	if c.BasePath == "" {
		c.BasePath = "/mdtest"
	}
	if len(c.Phases) == 0 {
		c.Phases = []string{MDPhaseCreate, MDPhaseStat, MDPhaseDelete}
	}
	return c
}

// has reports whether the phase list includes name.
func (c MDTestConfig) has(name string) bool {
	for _, p := range c.Phases {
		if p == name {
			return true
		}
	}
	return false
}

// MDTestReport mirrors mdtest's ops/sec summary. Phases that did not run
// report zero time and rate.
type MDTestReport struct {
	Config      MDTestConfig
	CreateTime  des.Time
	StatTime    des.Time
	ReadTime    des.Time
	RemoveTime  des.Time
	CreatesPerS float64
	StatsPerS   float64
	ReadsPerS   float64
	RemovesPerS float64
	TotalFiles  int
	Makespan    des.Time
}

// PhaseRate returns the ops/sec for a named phase (zero when it did not
// run), letting composite harnesses iterate phases uniformly.
func (r MDTestReport) PhaseRate(name string) float64 {
	switch name {
	case MDPhaseCreate:
		return r.CreatesPerS
	case MDPhaseStat:
		return r.StatsPerS
	case MDPhaseRead:
		return r.ReadsPerS
	case MDPhaseDelete:
		return r.RemovesPerS
	}
	return 0
}

// PhaseTime returns the simulated duration of a named phase.
func (r MDTestReport) PhaseTime(name string) des.Time {
	switch name {
	case MDPhaseCreate:
		return r.CreateTime
	case MDPhaseStat:
		return r.StatTime
	case MDPhaseRead:
		return r.ReadTime
	case MDPhaseDelete:
		return r.RemoveTime
	}
	return 0
}

// RunMDTest executes the metadata-stress workload: every enabled phase
// runs barrier-bracketed in canonical order over the same per-rank file
// population.
func RunMDTest(h *Harness, cfg MDTestConfig) MDTestReport {
	cfg = cfg.withDefaults()
	rep := MDTestReport{Config: cfg, TotalFiles: cfg.Ranks * cfg.FilesPerRank}
	var cStart, cEnd, sStart, sEnd, rdStart, rdEnd, rStart, rEnd des.Time

	end := h.Run(func(r *mpi.Rank, env *posixio.Env) {
		p := r.Proc()
		rankDir := fmt.Sprintf("%s/rank%d", cfg.BasePath, r.ID())
		// Every rank attempts the base mkdir: on a shared namespace the
		// first one wins (the rest get ErrExist), and on private node-local
		// namespaces each rank must create its own copy.
		_ = env.Mkdir(p, cfg.BasePath)
		r.Barrier()
		_ = env.Mkdir(p, rankDir)
		// Every phase works on the same files; name them once.
		files := Names(rankDir+"/f", 0, cfg.FilesPerRank)

		// Create phase (always runs; later phases need the files).
		r.Barrier()
		if r.ID() == 0 {
			cStart = r.Now()
		}
		for i := 0; i < cfg.FilesPerRank; i++ {
			fd, err := env.Open(p, files.At(i), posixio.OCreate|posixio.OExcl)
			if err != nil {
				continue
			}
			if cfg.WriteBytes > 0 {
				_, _ = env.Write(p, fd, cfg.WriteBytes)
				// mdtest -w syncs payloads before close; on write-back
				// tiers this also keeps the later delete phase from
				// unlinking files whose data is still staged.
				_ = env.Fsync(p, fd)
			}
			_ = env.Close(p, fd)
		}
		r.Barrier()
		prevEnd := des.Time(0)
		if r.ID() == 0 {
			cEnd = r.Now()
			prevEnd = cEnd
		}

		// Stat phase.
		if cfg.has(MDPhaseStat) {
			if r.ID() == 0 {
				sStart = prevEnd
			}
			for i := 0; i < cfg.FilesPerRank; i++ {
				_, _ = env.Stat(p, files.At(i))
			}
			r.Barrier()
			if r.ID() == 0 {
				sEnd = r.Now()
				prevEnd = sEnd
			}
		}

		// Read phase: open each file, read its payload back, close.
		if cfg.has(MDPhaseRead) {
			if r.ID() == 0 {
				rdStart = prevEnd
			}
			for i := 0; i < cfg.FilesPerRank; i++ {
				fd, err := env.Open(p, files.At(i), 0)
				if err != nil {
					continue
				}
				if cfg.WriteBytes > 0 {
					_, _ = env.Read(p, fd, cfg.WriteBytes)
				}
				_ = env.Close(p, fd)
			}
			r.Barrier()
			if r.ID() == 0 {
				rdEnd = r.Now()
				prevEnd = rdEnd
			}
		}

		// Delete phase (file unlinks plus directory teardown).
		if cfg.has(MDPhaseDelete) {
			if r.ID() == 0 {
				rStart = prevEnd
			}
			for i := 0; i < cfg.FilesPerRank; i++ {
				_ = env.Unlink(p, files.At(i))
			}
			_ = env.Rmdir(p, rankDir)
			r.Barrier()
			if r.ID() == 0 {
				rEnd = r.Now()
			}
		}
	})
	rep.Makespan = end
	rep.CreateTime = cEnd - cStart
	rep.CreatesPerS = opsPerSec(rep.TotalFiles, rep.CreateTime)
	if cfg.has(MDPhaseStat) {
		rep.StatTime = sEnd - sStart
		rep.StatsPerS = opsPerSec(rep.TotalFiles, rep.StatTime)
	}
	if cfg.has(MDPhaseRead) {
		rep.ReadTime = rdEnd - rdStart
		rep.ReadsPerS = opsPerSec(rep.TotalFiles, rep.ReadTime)
	}
	if cfg.has(MDPhaseDelete) {
		rep.RemoveTime = rEnd - rStart
		rep.RemovesPerS = opsPerSec(rep.TotalFiles, rep.RemoveTime)
	}
	return rep
}
