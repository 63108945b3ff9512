package workload

import (
	"fmt"
	"strconv"

	"pioeval/internal/des"
	"pioeval/internal/mpi"
	"pioeval/internal/pfs"
)

// This file is the million-rank scale path: a HACC-IO-like file-per-process
// checkpoint whose ranks are continuation-form event processes
// (mpi.EventRank on a des.EventProc), so a rank costs one small struct and
// one pooled event slot instead of a goroutine stack. A rank uses only
// EventRank's Compute and Barrier, and the pfs client's continuation calls
// (CreateE, WriteE, FsyncE, CloseE) into a handle the rank owns. Goroutine
// ranks await the same barrier machine and the same client calls, so
// RunCheckpoint and a one-shard RunShardedCheckpoint produce identical
// timing. RunShardedCheckpoint drives one engine, or partitions ranks and
// storage into per-I/O-domain engines coupled by a des.ParallelGroup.

// ScaleConfig configures a continuation-form checkpoint run. It is the
// file-per-process subset of CheckpointConfig (fresh file per rank per
// step, named <Path>.step<S>.<rank>): with RanksPerNode == 1 and the same
// knobs, a one-shard RunShardedCheckpoint and RunCheckpoint produce
// identical timing — the form-equivalence tests rely on that.
type ScaleConfig struct {
	Ranks        int
	BytesPerRank int64
	Steps        int
	ComputeTime  des.Time // per step, before the checkpoint
	TransferSize int64
	Path         string

	// RanksPerNode shares one compute-fabric node (and its NIC links)
	// among that many consecutive ranks, keeping fabric state sublinear in
	// rank count; 1 gives every rank its own node.
	RanksPerNode int
	// NodePrefix names the compute nodes <NodePrefix><i>.
	NodePrefix string

	// Striping for the checkpoint files (0 selects file-system defaults).
	// Scale runs typically set StripeCount 1: a million files striped wide
	// is not how file-per-process checkpoints behave.
	StripeCount int
	StripeSize  int64
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.Ranks <= 0 {
		c.Ranks = 4
	}
	if c.BytesPerRank <= 0 {
		c.BytesPerRank = 16 << 20
	}
	if c.Steps <= 0 {
		c.Steps = 4
	}
	if c.TransferSize <= 0 {
		c.TransferSize = 4 << 20
	}
	if c.Path == "" {
		c.Path = "/ckpt"
	}
	if c.RanksPerNode <= 0 {
		c.RanksPerNode = 1
	}
	if c.NodePrefix == "" {
		c.NodePrefix = "node"
	}
	return c
}

// scaleState is the per-engine accounting a run's ranks share. In sharded
// mode each shard has its own (engines run concurrently; no state crosses
// a shard boundary); the step timing slices are written only by the global
// lead rank on shard 0.
type scaleState struct {
	stepStart  []des.Time
	stepIOTime []des.Time
	stepErrs   []uint64

	// The engine's ranks have global ids first..first+ranks-1, and names
	// holds their file names for step namesStep: one block per step, built
	// by the first rank to open that step's file.
	first, ranks int
	names        NameBlock
	namesStep    int
}

func newScaleState(steps, first, ranks int) *scaleState {
	return &scaleState{
		stepStart:  make([]des.Time, steps),
		stepIOTime: make([]des.Time, steps),
		stepErrs:   make([]uint64, steps),
		first:      first, ranks: ranks, namesStep: -1,
	}
}

// fileName returns the checkpoint file name of global rank gid at step,
// <Path>.step<step>.<gid>, from the step's name block.
func (st *scaleState) fileName(cfg *ScaleConfig, step, gid int) string {
	if st.namesStep != step {
		st.names = Names(cfg.Path+".step"+strconv.Itoa(step)+".", st.first, st.ranks)
		st.namesStep = step
	}
	return st.names.At(gid - st.first)
}

// scaleRank is one checkpoint rank as an explicit state machine. It is its
// own continuation (Step, a phase switch) for every blocking point, the
// pfs calls included, and owns the handle it opens each step's file into,
// so steady-state execution allocates nothing per operation. A shard's
// ranks are one slice, allocated with its clients before the ranks spawn.
type scaleRank struct {
	r    *mpi.EventRank
	c    *pfs.Client
	cfg  *ScaleConfig
	st   *scaleState
	gid  int  // global rank id (file naming; == r.ID() unsharded)
	lead bool // the one rank that records step timing

	step  int
	off   int64
	t0    des.Time
	h     pfs.Handle // re-opened in place each step
	phase uint8
	after uint8 // the phase to resume in once the step barrier has passed

	// Cross-shard gate state (set only with more than one shard): the
	// step barrier is then the shard-local barrier followed by the gate.
	gate     *shardGate
	gateLead bool
	gateGen  int
}

// scaleRank phases: the step Step runs next.
const (
	srBarrier   uint8 = iota // compute time elapsed: enter the step barrier
	srOpen                   // step barrier passed: create the step's file
	srOpened                 // the create finished
	srWrite                  // a write finished
	srSync                   // the fsync finished
	srClose                  // the close finished
	srStepDone               // exit barrier passed
	srGateEnter              // shard-local barrier passed: enter the gate
	srGateAwait              // gate release fired: re-check the generation
)

func (s *scaleRank) Step() {
	switch s.phase {
	case srBarrier:
		s.barrier(srOpen)
	case srOpen:
		s.open()
	case srOpened:
		s.opened()
	case srWrite, srSync, srClose:
		s.ioDone()
	case srStepDone:
		s.stepDone()
	case srGateEnter:
		s.gateEnter()
	case srGateAwait:
		s.gateAwait()
	}
}

// stepBegin starts one compute+checkpoint step, or finishes the rank: a
// continuation step that returns without arming terminates the EventProc.
func (s *scaleRank) stepBegin() {
	if s.step >= s.cfg.Steps {
		return
	}
	if s.cfg.ComputeTime > 0 {
		s.phase = srBarrier
		s.r.Compute(s.cfg.ComputeTime, s)
		return
	}
	s.barrier(srOpen)
}

// barrier enters the step barrier and resumes in phase next once it has
// passed: the world barrier with one shard, the shard-local barrier
// followed by the cross-shard gate otherwise.
func (s *scaleRank) barrier(next uint8) {
	s.after = next
	s.phase = next
	if s.gate != nil {
		s.phase = srGateEnter
	}
	s.r.Barrier(s)
}

func (s *scaleRank) open() {
	if s.lead {
		s.st.stepStart[s.step] = s.r.Now()
	}
	s.t0 = s.r.Now()
	s.phase = srOpened
	s.c.CreateE(s.r.Proc(), &s.h, s.st.fileName(s.cfg, s.step, s.gid), s.cfg.StripeCount, s.cfg.StripeSize, s)
}

func (s *scaleRank) opened() {
	if s.h.Err() != nil {
		s.st.stepErrs[s.step]++
		s.barrier(srStepDone)
		return
	}
	s.off = 0
	s.write()
}

func (s *scaleRank) write() {
	if s.off >= s.cfg.BytesPerRank {
		s.phase = srSync
		s.h.FsyncE(s.r.Proc(), s)
		return
	}
	n := s.cfg.TransferSize
	if s.off+n > s.cfg.BytesPerRank {
		n = s.cfg.BytesPerRank - s.off
	}
	off := s.off
	s.off += n
	s.phase = srWrite
	s.h.WriteE(s.r.Proc(), off, n, s)
}

// ioDone runs when a write, the fsync or the close has finished.
func (s *scaleRank) ioDone() {
	if s.h.Err() != nil {
		s.st.stepErrs[s.step]++
	}
	switch s.phase {
	case srWrite:
		s.write()
	case srSync:
		s.phase = srClose
		s.h.CloseE(s.r.Proc(), s)
	case srClose:
		s.barrier(srStepDone)
	}
}

// gateEnter runs once the shard-local barrier has completed: the shard
// leader announces arrival to the coordinator, and every rank waits for
// the release generation to advance.
func (s *scaleRank) gateEnter() {
	g := s.gate
	s.gateGen = g.gen
	if s.gateLead {
		g.pg.Send(g.shard, 0, shardLookahead, g.coord.arrive)
	}
	s.gateAwait()
}

func (s *scaleRank) gateAwait() {
	if s.gate.gen != s.gateGen {
		s.phase = s.after
		s.Step()
		return
	}
	s.phase = srGateAwait
	s.gate.release.WaitE(s.r.Proc(), s)
}

func (s *scaleRank) stepDone() {
	if s.lead {
		s.st.stepIOTime[s.step] = s.r.Now() - s.st.stepStart[s.step]
	}
	s.step++
	s.stepBegin()
}

// ShardedConfig configures a continuation-form checkpoint run: ranks and
// storage are partitioned into Shards independent I/O domains — each with
// its own engine, file system slice (NumOSS and NumIONodes divided across
// shards), and MPI world — coupled only by the step barrier, whose
// cross-shard leg rides a des.ParallelGroup's lookahead. One shard (the
// default) runs a single engine with the plain MPI barrier. Shards is
// capped at Ranks and at NumOSS, so every shard gets at least one object
// server and the shards together never have more than the cluster.
type ShardedConfig struct {
	Scale  ScaleConfig
	Shards int
	// Deprecated: ignored. Shards run in index order on one goroutine.
	Workers int
	// FS is the per-cluster file-system configuration before sharding.
	FS pfs.Config
	// Seed seeds each shard's engine (shard i gets Seed+i).
	Seed int64
	// AttachShard, when non-nil, is called for every shard before ranks
	// spawn — the hook validate invariant checkers attach through.
	AttachShard func(shard int, e *des.Engine, fs *pfs.FS)
}

// ShardedReport summarizes a sharded checkpoint run.
type ShardedReport struct {
	Scale  ScaleConfig
	Shards int
	// Workers is always 1: shards run in index order on one goroutine.
	Workers int
	// Lookahead is the cross-shard latency (shardLookahead) that gate
	// messages pay each way.
	Lookahead     des.Time
	RanksPerShard []int
	StepIOTime    []des.Time
	StepIOErrors  []uint64
	IOErrors      uint64
	TotalBytes    int64
	Makespan      des.Time
	EffectiveMBps float64
	Events        uint64
	// Windows is the number of conservative lookahead windows (epochs) the
	// ParallelGroup executed; fewer windows per simulated second means
	// coarser, cheaper synchronization. A one-shard run has no group and
	// reports 0.
	Windows uint64
}

// shardLookahead is the cross-shard latency, an InfiniBand-like
// inter-domain hop.
const shardLookahead = 1500 * des.Nanosecond

// shardGate is the cross-shard half of the step barrier. After a shard's
// local barrier completes, its local rank 0 announces arrival to the
// coordinator (an event on shard 0) and every local rank waits on the
// shard's release signal; when all shards have arrived the coordinator
// broadcasts the release. Announce and release each cross partitions with
// delay == lookahead, honoring the conservative contract, so one gate
// crossing costs two lookaheads. Coordinator state is touched only by
// shard-0 events, never concurrently. Each message is a method value
// bound as it is sent, one small allocation per shard per crossing.
type shardGate struct {
	pg      *des.ParallelGroup
	shard   int
	release des.Signal
	gen     int
	coord   *gateCoord
}

func (g *shardGate) doRelease() {
	g.gen++
	g.release.Fire()
}

type gateCoord struct {
	pg    *des.ParallelGroup
	gates []*shardGate
	count int
}

// arrive runs as a shard-0 event, once per shard per gate crossing.
func (gc *gateCoord) arrive() {
	gc.count++
	if gc.count < len(gc.gates) {
		return
	}
	gc.count = 0
	for s, g := range gc.gates {
		gc.pg.Send(0, s, shardLookahead, g.doRelease)
	}
}

// RunShardedCheckpoint executes the checkpoint workload in continuation
// form. With more than one shard the engines run under a des.ParallelGroup:
// ranks split as evenly as possible across shards, and every shard's file
// system gets NumOSS/Shards object servers and NumIONodes/Shards
// forwarding nodes (at least one of each the cluster has). It panics on
// simulated deadlock.
func RunShardedCheckpoint(cfg ShardedConfig) ShardedReport {
	sc := cfg.Scale.withDefaults()
	fscfg := cfg.FS
	if fscfg.NumOSS == 0 {
		fscfg = pfs.DefaultConfig()
	}
	shards := min(max(cfg.Shards, 1), sc.Ranks, fscfg.NumOSS)
	fscfg.NumOSS /= shards
	if fscfg.NumIONodes > 0 {
		fscfg.NumIONodes = max(fscfg.NumIONodes/shards, 1)
	}

	engines := make([]*des.Engine, shards)
	for i := range engines {
		engines[i] = des.NewEngine(cfg.Seed + int64(i))
	}
	var pg *des.ParallelGroup
	gates := make([]*shardGate, shards)
	if shards > 1 {
		pg = des.NewParallelGroup(shardLookahead, engines...)
		coord := &gateCoord{pg: pg, gates: gates}
		for i := range gates {
			gates[i] = &shardGate{pg: pg, shard: i, coord: coord}
		}
	}

	base, extra := sc.Ranks/shards, sc.Ranks%shards
	states := make([]*scaleState, shards)
	ranksPerShard := make([]int, shards)
	gid := 0
	for sh := 0; sh < shards; sh++ {
		n := base
		if sh < extra {
			n++
		}
		ranksPerShard[sh] = n
		e := engines[sh]
		fs := pfs.New(e, fscfg)
		if cfg.AttachShard != nil {
			cfg.AttachShard(sh, e, fs)
		}
		st := newScaleState(sc.Steps, gid, n)
		states[sh] = st
		ranks := make([]scaleRank, n)
		var node string
		for i := range ranks {
			if i%sc.RanksPerNode == 0 {
				node = sc.NodePrefix + strconv.Itoa(i/sc.RanksPerNode)
			}
			ranks[i] = scaleRank{
				c: fs.NewClientAt(node), cfg: &sc, st: st, gid: gid + i, lead: sh == 0 && i == 0,
				gate: gates[sh], gateLead: gates[sh] != nil && i == 0,
			}
		}
		w := mpi.NewWorld(e, n, mpi.DefaultOptions())
		w.SpawnEvent(func(r *mpi.EventRank) {
			s := &ranks[r.ID()]
			s.r = r
			s.stepBegin()
		})
		gid += n
	}

	rep := ShardedReport{
		Scale: sc, Shards: shards, Workers: 1, Lookahead: shardLookahead,
		RanksPerShard: ranksPerShard,
		StepIOTime:    states[0].stepIOTime,
		StepIOErrors:  make([]uint64, sc.Steps),
		TotalBytes:    sc.BytesPerRank * int64(sc.Ranks) * int64(sc.Steps),
	}
	if pg == nil {
		rep.Makespan = engines[0].Run(des.MaxTime)
	} else {
		rep.Makespan = pg.Run(des.MaxTime)
		rep.Windows = pg.Windows()
	}
	for sh, e := range engines {
		if e.LiveProcs() != 0 {
			panic(fmt.Sprintf("workload: sharded checkpoint deadlock: shard %d has %d live procs", sh, e.LiveProcs()))
		}
	}

	for _, st := range states {
		for i, n := range st.stepErrs {
			rep.StepIOErrors[i] += n
		}
	}
	for _, n := range rep.StepIOErrors {
		rep.IOErrors += n
	}
	var totalIO des.Time
	for _, d := range rep.StepIOTime {
		totalIO += d
	}
	rep.EffectiveMBps = bwMBps(rep.TotalBytes, totalIO)
	for _, e := range engines {
		rep.Events += e.Dispatches()
	}
	return rep
}
