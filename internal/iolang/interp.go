package iolang

import (
	"fmt"
	"sort"

	"pioeval/internal/des"
	"pioeval/internal/mpi"
	"pioeval/internal/pfs"
	"pioeval/internal/posixio"
	"pioeval/internal/skeleton"
	"pioeval/internal/storage"
	"pioeval/internal/trace"
)

// Report summarizes an interpreted run.
type Report struct {
	Name         string
	Ranks        int
	BytesRead    int64
	BytesWritten int64
	Ops          int
	Makespan     des.Time
}

// Run interprets the workload against fs, spawning one MPI rank per
// configured rank, and drives the engine to completion. Every rank talks
// straight to the PFS (the direct tier); use RunOn to route the ranks
// through a storage provider instead.
func Run(e *des.Engine, fs *pfs.FS, w *Workload, col *trace.Collector) (Report, error) {
	return RunOn(e, fs, w, col, nil)
}

// RunOn is Run with an explicit storage provider: each rank's POSIX
// environment is bound to pr.Target (burst-buffer tier, node-local
// scratch, ...). A nil provider means direct PFS access. When the
// provider owns background drain workers, RunOn finalizes them (waits
// for the drain, then stops them) after the ranks finish, so the
// reported makespan includes the tail drain — the honest cost of
// write-back tiering.
func RunOn(e *des.Engine, fs *pfs.FS, w *Workload, col *trace.Collector, pr *storage.Provider) (Report, error) {
	rep := Report{Name: w.Name, Ranks: w.Ranks}
	world := mpi.NewWorld(e, w.Ranks, mpi.DefaultOptions())
	envs := make([]*posixio.Env, w.Ranks)
	for i := range envs {
		node := fmt.Sprintf("iolang%d", i)
		var t storage.Target
		if pr != nil {
			t = pr.Target(node)
		} else {
			t = storage.Direct(fs.NewClient(node))
		}
		envs[i] = posixio.NewEnv(t, i, col)
		envs[i].StripeCount = w.StripeCount
		envs[i].StripeSize = w.StripeSize
	}
	var execErr error
	var wg *des.WaitGroup
	if pr != nil && pr.NeedsFinalize() {
		wg = new(des.WaitGroup)
		wg.Add(w.Ranks)
	}
	world.Spawn(func(r *mpi.Rank) {
		ex := &executor{w: w, r: r, env: envs[r.ID()], rep: &rep, fds: map[string]int{}}
		if err := ex.run(w.Body, 0); err != nil && execErr == nil {
			execErr = err
		}
		// Close any leaked descriptors at workload end, in open (fd)
		// order: map iteration order is random and would make same-seed
		// runs diverge.
		fds := make([]int, 0, len(ex.fds))
		for _, fd := range ex.fds {
			fds = append(fds, fd)
		}
		sort.Ints(fds)
		for _, fd := range fds {
			_ = ex.env.Close(r.Proc(), fd)
		}
		clear(ex.fds)
		if wg != nil {
			wg.Done()
		}
	})
	var drainErr error
	if wg != nil {
		e.Spawn("iolang.drain", func(p *des.Proc) {
			wg.Wait(p)
			drainErr = pr.Finalize(p)
		})
	}
	e.Run(des.MaxTime)
	if e.LiveProcs() != 0 {
		return rep, fmt.Errorf("iolang: deadlock with %d live procs", e.LiveProcs())
	}
	rep.Makespan = e.Now()
	if execErr == nil && drainErr != nil {
		execErr = drainErr
	}
	return rep, execErr
}

// executor runs statements for one rank.
type executor struct {
	w   *Workload
	r   *mpi.Rank
	env *posixio.Env
	rep *Report
	fds map[string]int
}

func (ex *executor) fd(p *des.Proc, path string, create bool) (int, error) {
	if fd, ok := ex.fds[path]; ok {
		return fd, nil
	}
	flags := 0
	if create {
		flags = posixio.OCreate
	}
	fd, err := ex.env.Open(p, path, flags)
	if err != nil && !create {
		// Auto-create on first write to an unopened file.
		fd, err = ex.env.Open(p, path, posixio.OCreate)
	}
	if err != nil {
		return -1, err
	}
	ex.fds[path] = fd
	return fd, nil
}

func (ex *executor) run(body []Stmt, iter int) error {
	p := ex.r.Proc()
	rank := ex.r.ID()
	for _, s := range body {
		path := substitute(s.Path, rank, iter)
		switch s.Kind {
		case "barrier":
			ex.r.Barrier()
		case "compute":
			p.Wait(des.Time(s.Dur.Eval(rank, iter)))
		case "loop":
			for i := 0; i < s.Count; i++ {
				if err := ex.run(s.Body, i); err != nil {
					return err
				}
			}
		case "open":
			if _, err := ex.fd(p, path, s.Create || true); err != nil {
				return err
			}
		case "close":
			if fd, ok := ex.fds[path]; ok {
				_ = ex.env.Close(p, fd)
				delete(ex.fds, path)
			}
		case "fsync":
			if fd, ok := ex.fds[path]; ok {
				_ = ex.env.Fsync(p, fd)
			}
		case "stat":
			_, _ = ex.env.Stat(p, path)
		case "readdir":
			_, _ = ex.env.Readdir(p, path)
		case "mkdir":
			_ = ex.env.Mkdir(p, path)
		case "rmdir":
			_ = ex.env.Rmdir(p, path)
		case "unlink":
			delete(ex.fds, path)
			_ = ex.env.Unlink(p, path)
		case "read", "write":
			fd, err := ex.fd(p, path, true)
			if err != nil {
				return err
			}
			off := s.Offset.Eval(rank, iter)
			size := s.Size.Eval(rank, iter)
			chunk := size
			if s.Chunk != nil {
				if c := s.Chunk.Eval(rank, iter); c > 0 {
					chunk = c
				}
			}
			for done := int64(0); done < size; done += chunk {
				n := chunk
				if done+n > size {
					n = size - done
				}
				if s.Kind == "write" {
					_, _ = ex.env.Pwrite(p, fd, off+done, n)
					ex.rep.BytesWritten += n
				} else {
					_, _ = ex.env.Pread(p, fd, off+done, n)
					ex.rep.BytesRead += n
				}
			}
		default:
			return fmt.Errorf("iolang: unknown statement kind %q", s.Kind)
		}
		ex.rep.Ops++
	}
	return nil
}

// Compile lowers the workload to per-rank concrete op streams without
// executing it — the trace-shaped "workload source" for the replayer.
// Compute statements become think time on the next op.
func Compile(w *Workload) [][]skeleton.ConcreteOp {
	out := make([][]skeleton.ConcreteOp, w.Ranks)
	for rank := 0; rank < w.Ranks; rank++ {
		var ops []skeleton.ConcreteOp
		var pendingThink des.Time
		emit := func(op skeleton.ConcreteOp) {
			op.Think = pendingThink
			pendingThink = 0
			ops = append(ops, op)
		}
		var walk func(body []Stmt, iter int)
		walk = func(body []Stmt, iter int) {
			for _, s := range body {
				path := substitute(s.Path, rank, iter)
				switch s.Kind {
				case "compute":
					pendingThink += des.Time(s.Dur.Eval(rank, iter))
				case "barrier":
					// No-op in compiled form: replay is per-rank.
				case "loop":
					for i := 0; i < s.Count; i++ {
						walk(s.Body, i)
					}
				case "open", "close", "fsync", "stat", "mkdir", "rmdir", "unlink":
					emit(skeleton.ConcreteOp{Op: s.Kind, Path: path})
				case "readdir":
					// The replayer has no readdir op; model it as a stat.
					emit(skeleton.ConcreteOp{Op: "stat", Path: path})
				case "read", "write":
					off := s.Offset.Eval(rank, iter)
					size := s.Size.Eval(rank, iter)
					chunk := size
					if s.Chunk != nil {
						if c := s.Chunk.Eval(rank, iter); c > 0 {
							chunk = c
						}
					}
					for done := int64(0); done < size; done += chunk {
						n := chunk
						if done+n > size {
							n = size - done
						}
						emit(skeleton.ConcreteOp{Op: s.Kind, Path: path, Offset: off + done, Size: n})
					}
				}
			}
		}
		walk(w.Body, 0)
		out[rank] = ops
	}
	return out
}
