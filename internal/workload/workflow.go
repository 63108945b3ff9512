package workload

import (
	"fmt"

	"pioeval/internal/des"
	"pioeval/internal/pfs"
	"pioeval/internal/posixio"
	"pioeval/internal/storage"
	"pioeval/internal/trace"
)

// WFTask is one task of a scientific workflow DAG: it reads its input
// files, computes, and writes its output files. Dependencies are implied
// by file names: a task runs when all of its inputs exist.
type WFTask struct {
	Name       string
	Inputs     []string
	Outputs    []string
	OutputSize int64
	Compute    des.Time
}

// WorkflowConfig describes a workflow run.
type WorkflowConfig struct {
	Tasks []WFTask
	// Workers is the number of concurrent task executors.
	Workers int
	Path    string // working directory
}

// ChainWorkflow builds a linear pipeline of n stages, each producing
// fanout files of size bytes consumed by the next stage — the
// metadata-intensive, small-transaction shape of §V-C.
func ChainWorkflow(stages, fanout int, size int64) WorkflowConfig {
	var tasks []WFTask
	outputsOf := func(stage int) []string {
		var out []string
		for f := 0; f < fanout; f++ {
			out = append(out, fmt.Sprintf("/wf/s%d.f%d", stage, f))
		}
		return out
	}
	for s := 0; s < stages; s++ {
		t := WFTask{
			Name:       fmt.Sprintf("stage%d", s),
			Outputs:    outputsOf(s),
			OutputSize: size,
			Compute:    des.Millisecond,
		}
		if s > 0 {
			t.Inputs = outputsOf(s - 1)
		}
		tasks = append(tasks, t)
	}
	return WorkflowConfig{Tasks: tasks, Workers: 2, Path: "/wf"}
}

// DiamondWorkflow builds a fan-out/fan-in DAG: one producer, width
// parallel analyzers, one combiner.
func DiamondWorkflow(width int, size int64) WorkflowConfig {
	producer := WFTask{Name: "produce", Outputs: []string{"/wf/input"}, OutputSize: size, Compute: des.Millisecond}
	tasks := []WFTask{producer}
	var mids []string
	for i := 0; i < width; i++ {
		out := fmt.Sprintf("/wf/mid%d", i)
		mids = append(mids, out)
		tasks = append(tasks, WFTask{
			Name: fmt.Sprintf("analyze%d", i), Inputs: []string{"/wf/input"},
			Outputs: []string{out}, OutputSize: size / int64(width), Compute: des.Millisecond,
		})
	}
	tasks = append(tasks, WFTask{
		Name: "combine", Inputs: mids, Outputs: []string{"/wf/result"},
		OutputSize: size, Compute: des.Millisecond,
	})
	return WorkflowConfig{Tasks: tasks, Workers: width, Path: "/wf"}
}

// WorkflowReport summarizes a workflow run.
type WorkflowReport struct {
	TasksRun  int
	MetaOps   uint64 // MDS operations consumed by the workflow
	BytesRead int64
	BytesWrit int64
	Makespan  des.Time
	// MetaOpsPerMB characterizes metadata intensity (§V-C): MDS ops per
	// megabyte of data moved.
	MetaOpsPerMB float64
}

// RunWorkflow executes the DAG on fs with cfg.Workers concurrent executors.
// Each ready task (all inputs present) is claimed by an idle worker; tasks
// poll readiness via Stat — exactly the metadata chatter real workflow
// engines generate.
func RunWorkflow(e *des.Engine, fs *pfs.FS, cfg WorkflowConfig, col *trace.Collector) WorkflowReport {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Path == "" {
		cfg.Path = "/wf"
	}
	mdsBefore := fs.MDSStats().TotalOps
	rep := WorkflowReport{}

	// Ready-queue coordination in simulated time.
	done := map[string]bool{} // outputs produced
	var remaining = len(cfg.Tasks)
	taskReady := func(t WFTask) bool {
		for _, in := range t.Inputs {
			if !done[in] {
				return false
			}
		}
		return true
	}
	claimed := make([]bool, len(cfg.Tasks))
	wake := new(des.Signal)

	for w := 0; w < cfg.Workers; w++ {
		w := w
		env := posixio.NewEnv(storage.Direct(fs.NewClient(fmt.Sprintf("wfworker%d", w))), w, col)
		e.Spawn(fmt.Sprintf("wf.worker%d", w), func(p *des.Proc) {
			if w == 0 {
				_ = env.Mkdir(p, cfg.Path)
			}
			for remaining > 0 {
				// Find a ready unclaimed task.
				idx := -1
				for i, t := range cfg.Tasks {
					if !claimed[i] && taskReady(t) {
						idx = i
						break
					}
				}
				if idx < 0 {
					if remaining == 0 {
						return
					}
					wake.Wait(p)
					continue
				}
				claimed[idx] = true
				t := cfg.Tasks[idx]
				// Read inputs (workflow engines stat before reading).
				for _, in := range t.Inputs {
					fi, err := env.Stat(p, in)
					if err != nil {
						continue
					}
					fd, err := env.Open(p, in, 0)
					if err != nil {
						continue
					}
					_, _ = env.Pread(p, fd, 0, fi.Size)
					rep.BytesRead += fi.Size
					_ = env.Close(p, fd)
				}
				if t.Compute > 0 {
					p.Wait(t.Compute)
				}
				for _, out := range t.Outputs {
					fd, err := env.Open(p, out, posixio.OCreate)
					if err != nil {
						continue
					}
					_, _ = env.Pwrite(p, fd, 0, t.OutputSize)
					rep.BytesWrit += t.OutputSize
					_ = env.Close(p, fd)
					done[out] = true
				}
				rep.TasksRun++
				remaining--
				wake.Fire()
			}
		})
	}
	e.Run(des.MaxTime)
	rep.Makespan = e.Now()
	rep.MetaOps = fs.MDSStats().TotalOps - mdsBefore
	if mb := float64(rep.BytesRead+rep.BytesWrit) / 1e6; mb > 0 {
		rep.MetaOpsPerMB = float64(rep.MetaOps) / mb
	}
	return rep
}
