// Package pioeval is a parallel I/O evaluation toolkit: an executable
// reproduction of "Parallel I/O Evaluation Techniques and Emerging HPC
// Workloads: A Perspective" (Neuwirth & Paul, IEEE CLUSTER 2021).
//
// The paper surveys the large-scale I/O evaluation process; this module
// implements every system that process involves, on top of a deterministic
// discrete-event simulator:
//
//   - the simulated HPC I/O stack: network fabrics (internal/netsim),
//     storage devices (internal/blockdev), a Lustre-like parallel file
//     system (internal/pfs), an I/O-node burst-buffer tier
//     (internal/burstbuffer), MPI (internal/mpi), POSIX
//     (internal/posixio), MPI-IO with two-phase collective buffering
//     (internal/mpiio), and an HDF5-like library (internal/hdf);
//   - measurement & statistics collection: multi-level tracing
//     (internal/trace), Darshan-like characterization (internal/profile),
//     server-side monitoring and end-to-end correlation
//     (internal/monitor), and a workload manager (internal/sched);
//   - modeling & prediction: statistics (internal/stats), ML predictors
//     (internal/predict), skeleton/benchmark generation
//     (internal/skeleton), and trace replay with rank extrapolation
//     (internal/replay);
//   - workload generation: IOR/mdtest/HACC/DLIO/BT-IO/workflow
//     generators (internal/workload) and a CODES-like DSL
//     (internal/iolang);
//   - the paper's contribution as code: the iterative evaluation cycle
//     and the IOWA-style source/consumer abstraction (internal/core), and
//     the survey corpus behind Figure 3 (internal/corpus).
//
// The benchmarks in this directory regenerate every figure and
// quantitative claim of the paper; see DESIGN.md and EXPERIMENTS.md.
package pioeval
