package validate

import (
	"fmt"
	"math"
	"strings"

	"pioeval/internal/des"
	"pioeval/internal/pfs"
	"pioeval/internal/storage"
	"pioeval/internal/trace"
)

// maxRetained caps the violations kept verbatim; further ones are only
// counted, so a systematically broken run cannot exhaust memory.
const maxRetained = 64

// Invariants is a runtime checker wired into one simulation run. Create
// it with Arm before spawning workload processes, drive the engine to
// completion, then call Finish for the verdict.
//
// Checked while the simulation runs:
//
//   - time-monotonic: the engine's dispatch clock never goes backwards.
//   - record-time: every trace record has 0 <= Start <= End.
//   - record-causality: per (rank, layer), POSIX and MPI-IO records do
//     not overlap — each rank issues these ops sequentially, so the next
//     op must start at or after the previous one ended.
//   - op-time: every PFS client op event has 0 <= Start <= End.
//
// Checked at Finish:
//
//   - deadlock-free: no live processes remain after the engine drains.
//   - shutdown-balance: no pending events, empty MDS and OST queues,
//     device utilizations within [0, 1].
//   - write-conservation: bytes written at the PFS client boundary equal
//     bytes arriving at the OSTs (armed only on fault-free runs — lost
//     RPCs legitimately break equality — and catches dropped or double
//     writes, and striping/accounting bugs).
//   - read-conservation: client-read bytes equal OST-read bytes (armed
//     only on fault-free runs with readahead disabled, since readahead
//     legitimately over-fetches and cache hits under-fetch).
//   - layer-ordering: MPI-IO requested bytes never exceed POSIX bytes,
//     and POSIX bytes never exceed PFS-client bytes (aggregation hole
//     padding only ever inflates the lower layer).
//   - stage-conservation / stage-ratio: with storage stages pushed on the
//     provider (Arm's provider arms this too), every logical byte entering a
//     stage is accounted, each stage's physical output feeds the layer
//     below exactly, and logical == physical x ratio within the ceil-per-op
//     rounding slop (1.2%). The tier checks below the stack then run
//     against the innermost stage's physical bytes.
type Invariants struct {
	eng *des.Engine
	fs  *pfs.FS

	lastDispatch des.Time
	dispatches   uint64
	records      uint64
	clientOps    uint64
	ostEvents    uint64

	// Byte tallies per layer boundary.
	mpiioRead, mpiioWrite   int64
	posixRead, posixWrite   int64
	clientRead, clientWrite int64
	ostRead, ostWrite       int64

	// Per-(rank, layer) last record end, for causality.
	lastEnd map[[2]int]des.Time

	vios     []Violation
	dropped  uint64
	finished bool

	// provider, when Arm is given one, arms the tier-conservation
	// checks: byte equality is tracked across the storage-tier boundary
	// (POSIX → staging → drain → PFS client) instead of assuming the POSIX
	// layer talks to the PFS client directly.
	provider *storage.Provider

	// ostSkew is a test-only fault: it is added to the observed OST write
	// tally before the conservation check, simulating an accounting bug so
	// tests can prove the checker catches one. Never set outside tests.
	ostSkew int64
}

// Arm arms every invariant checker on one run. It claims the engine
// trace hook, the PFS op/OST observers and the hook of the returned
// collector, which the workload must be given so its records reach the
// checks; the collector keeps one record, so armed runs schedule nothing
// more and keep their timings. pr, the provider the workload's POSIX
// environments come from, arms the tier checks at Finish: on the
// burst-buffer tier every POSIX-written byte is absorbed and drained, on
// the node-local tier none reaches a PFS client. A nil or direct-tier pr
// keeps the direct-path checks. A caller needing another record observer
// installs, after Arm, one collector hook that calls OnRecord and then
// its own.
func Arm(e *des.Engine, fs *pfs.FS, pr *storage.Provider) (*Invariants, *trace.Collector) {
	col := trace.NewCollector()
	col.SetLimit(1)
	inv := attach(e, fs, col)
	inv.provider = pr
	return inv, col
}

// attach installs invariant hooks on the engine, the file system, and the
// collector (col may be nil when no trace-layer checks are wanted).
func attach(e *des.Engine, fs *pfs.FS, col *trace.Collector) *Invariants {
	inv := &Invariants{eng: e, fs: fs, lastEnd: map[[2]int]des.Time{}}
	e.SetTraceHook(inv.onDispatch)
	fs.SetOpObserver(inv.onClientOp)
	fs.SetOSTObserver(inv.onOSTEvent)
	if col != nil {
		col.SetHook(inv.OnRecord)
	}
	return inv
}

// violatef records one violation, keeping at most maxRetained verbatim.
func (inv *Invariants) violatef(invariant, format string, args ...interface{}) {
	if len(inv.vios) >= maxRetained {
		inv.dropped++
		return
	}
	inv.vios = append(inv.vios, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// onDispatch checks engine-clock monotonicity on every dispatched event.
func (inv *Invariants) onDispatch(at des.Time, what string) {
	inv.dispatches++
	if at < inv.lastDispatch {
		inv.violatef("time-monotonic", "dispatch %q at %v after %v", what, at, inv.lastDispatch)
	}
	inv.lastDispatch = at
}

// OnRecord checks one trace record; it is installed as the collector hook
// by Arm and exported so a caller's own collector hook can call it
// alongside its other observers.
func (inv *Invariants) OnRecord(r trace.Record) {
	inv.records++
	if r.Start < 0 || r.End < r.Start {
		inv.violatef("record-time", "rank %d %s %s %q: start %v end %v", r.Rank, r.Layer, r.Op, r.Path, r.Start, r.End)
	}
	switch r.Layer {
	case trace.LayerPOSIX, trace.LayerMPIIO:
		k := [2]int{r.Rank, int(r.Layer)}
		if prev, ok := inv.lastEnd[k]; ok && r.Start < prev {
			inv.violatef("record-causality", "rank %d %s %s %q starts %v before previous op ended %v",
				r.Rank, r.Layer, r.Op, r.Path, r.Start, prev)
		}
		if r.End > inv.lastEnd[k] {
			inv.lastEnd[k] = r.End
		}
	}
	switch {
	case r.Layer == trace.LayerPOSIX && r.Op == "write":
		inv.posixWrite += r.Size
	case r.Layer == trace.LayerPOSIX && r.Op == "read":
		inv.posixRead += r.Size
	// MPI-IO data ops: mpi_file_write, mpi_file_write_at, mpi_file_write_all
	// (collective records carry the rank's own contribution) and the read
	// equivalents. Open/close records carry no payload.
	case r.Layer == trace.LayerMPIIO && strings.HasPrefix(r.Op, "mpi_file_write"):
		inv.mpiioWrite += r.Size
	case r.Layer == trace.LayerMPIIO && strings.HasPrefix(r.Op, "mpi_file_read"):
		inv.mpiioRead += r.Size
	}
}

// onClientOp tallies the PFS-client boundary.
func (inv *Invariants) onClientOp(ev pfs.OpEvent) {
	inv.clientOps++
	if ev.Start < 0 || ev.End < ev.Start {
		inv.violatef("op-time", "client %s %s %q: start %v end %v", ev.Client, ev.Op, ev.Path, ev.Start, ev.End)
	}
	switch ev.Op {
	case "write":
		inv.clientWrite += ev.Size
	case "read":
		inv.clientRead += ev.Size
	}
}

// onOSTEvent tallies the OST boundary.
func (inv *Invariants) onOSTEvent(ev pfs.OSTEvent) {
	inv.ostEvents++
	if ev.Size < 0 {
		inv.violatef("op-time", "ost%d negative access size %d", ev.OST, ev.Size)
	}
	if ev.Write {
		inv.ostWrite += ev.Size
	} else {
		inv.ostRead += ev.Size
	}
}

// faultFree reports whether the run saw no injected faults and no client
// retries/timeouts/degradation — the condition under which byte equality
// across layer boundaries must hold exactly.
func (inv *Invariants) faultFree() bool {
	if len(inv.fs.FaultLog()) != 0 {
		return false
	}
	cs := inv.fs.ClientStatsTotal()
	return cs.Retries == 0 && cs.TimedOutRPCs == 0 && cs.FailedRPCs == 0 && cs.DegradedReads == 0
}

// Finish runs the end-of-simulation checks and returns every violation
// observed during the run. Call it after the engine has drained (for
// workloads driven by iolang.Run, after it returns). Finish is
// idempotent: the shutdown checks run once.
func (inv *Invariants) Finish() []Violation {
	if inv.finished {
		return inv.vios
	}
	inv.finished = true

	if n := inv.eng.LiveProcs(); n != 0 {
		inv.violatef("deadlock-free", "%d live processes after engine drain", n)
	}
	if n := inv.eng.Pending(); n != 0 {
		inv.violatef("shutdown-balance", "%d events still pending", n)
	}
	if md := inv.fs.MDSStats(); md.QueueLen != 0 {
		inv.violatef("shutdown-balance", "MDS queue length %d at shutdown", md.QueueLen)
	}
	for _, st := range inv.fs.OSTStats() {
		if st.QueueLen != 0 {
			inv.violatef("shutdown-balance", "ost%d queue length %d at shutdown", st.ID, st.QueueLen)
		}
		if st.Utilization < 0 || st.Utilization > 1.000001 {
			inv.violatef("shutdown-balance", "ost%d utilization %.6f outside [0, 1]", st.ID, st.Utilization)
		}
		if st.BytesRead < 0 || st.BytesWritten < 0 {
			inv.violatef("shutdown-balance", "ost%d negative byte counters: read %d written %d", st.ID, st.BytesRead, st.BytesWritten)
		}
	}

	ostWrite := inv.ostWrite + inv.ostSkew
	ff := inv.faultFree()
	if ff {
		if inv.clientWrite != ostWrite {
			inv.violatef("write-conservation", "client wrote %d bytes but OSTs received %d (Δ %d; dropped or double write, or accounting bug)",
				inv.clientWrite, ostWrite, inv.clientWrite-ostWrite)
		}
		if inv.fs.Config().ClientReadahead == 0 && inv.clientRead != inv.ostRead {
			inv.violatef("read-conservation", "client read %d bytes but OSTs served %d (Δ %d)",
				inv.clientRead, inv.ostRead, inv.clientRead-inv.ostRead)
		}
		if inv.mpiioWrite > inv.posixWrite {
			inv.violatef("layer-ordering", "MPI-IO wrote %d bytes but POSIX only %d (aggregation must not lose bytes)",
				inv.mpiioWrite, inv.posixWrite)
		}
		if inv.mpiioRead > inv.posixRead {
			inv.violatef("layer-ordering", "MPI-IO read %d bytes but POSIX only %d (sieving must not lose bytes)",
				inv.mpiioRead, inv.posixRead)
		}
		tier := storage.TierDirect
		if inv.provider != nil {
			tier = inv.provider.Tier()
		}
		// Walk the stage stack outermost-first: each stage's logical bytes
		// must match what the layer above produced, and its physical bytes
		// become the expectation for the layer below. The tier checks then
		// run against the innermost stage's physical output instead of the
		// raw POSIX tallies.
		posixWrite, posixRead := inv.posixWrite, inv.posixRead
		checkable := true
		if inv.provider != nil {
			stages := inv.provider.Stages()
			for i := len(stages) - 1; i >= 0; i-- {
				acct, ok := stages[i].(storage.StageAccounting)
				if !ok {
					// An unaccounted stage hides the byte flow below it; the
					// remaining boundary checks would be guesses.
					checkable = false
					break
				}
				st := acct.StageStats()
				if st.LogicalWritten != posixWrite {
					inv.violatef("stage-conservation", "stage %s saw %d logical bytes written but the layer above produced %d (Δ %d)",
						stages[i].Name(), st.LogicalWritten, posixWrite, st.LogicalWritten-posixWrite)
				}
				if st.LogicalRead != posixRead {
					inv.violatef("stage-conservation", "stage %s served %d logical bytes read but the layer above requested %d (Δ %d)",
						stages[i].Name(), st.LogicalRead, posixRead, st.LogicalRead-posixRead)
				}
				if rm, ok := stages[i].(interface{ ModelRatio() float64 }); ok {
					inv.checkStageRatio(stages[i].Name(), st, rm.ModelRatio())
				}
				posixWrite, posixRead = st.PhysicalWritten, st.PhysicalRead
			}
		}
		switch {
		case !checkable:
			// Nothing below the unaccounted stage can be checked.
		case tier == storage.TierBB:
			// Byte conservation across the tier boundary: POSIX → staged →
			// drained → PFS client → OST, with reads split between staging
			// hits and read-through misses.
			var absorbed, drained, used, bufReads, missReads int64
			for _, bb := range inv.provider.Buffers() {
				st := bb.Stats()
				absorbed += st.Absorbed
				drained += st.Drained
				used += st.Used
				bufReads += st.BufReads
				missReads += st.MissReads
			}
			if posixWrite != absorbed {
				inv.violatef("tier-conservation", "POSIX wrote %d bytes but burst buffers absorbed %d (Δ %d)",
					posixWrite, absorbed, posixWrite-absorbed)
			}
			if drained != absorbed {
				inv.violatef("tier-conservation", "burst buffers absorbed %d bytes but drained %d (Δ %d; fault-free drains must conserve bytes)",
					absorbed, drained, absorbed-drained)
			}
			if used != 0 {
				inv.violatef("tier-conservation", "%d bytes still staged at shutdown (finalize must drain the buffers)", used)
			}
			if drained != inv.clientWrite {
				inv.violatef("tier-conservation", "burst buffers drained %d bytes but PFS clients wrote %d (Δ %d)",
					drained, inv.clientWrite, drained-inv.clientWrite)
			}
			if posixRead != bufReads+missReads {
				inv.violatef("tier-conservation", "POSIX read %d bytes but buffers served %d staged + %d read-through",
					posixRead, bufReads, missReads)
			}
			if inv.fs.Config().ClientReadahead == 0 && missReads != inv.clientRead {
				inv.violatef("tier-conservation", "buffers read %d bytes through the PFS but clients recorded %d",
					missReads, inv.clientRead)
			}
		case tier == storage.TierNodeLocal:
			// Scratch traffic must stay on the scratch devices.
			var localRead, localWrite int64
			for _, nl := range inv.provider.Locals() {
				st := nl.Stats()
				localRead += st.BytesRead
				localWrite += st.BytesWritten
			}
			if posixWrite != localWrite {
				inv.violatef("tier-conservation", "POSIX wrote %d bytes but scratch devices received %d (Δ %d)",
					posixWrite, localWrite, posixWrite-localWrite)
			}
			if posixRead != localRead {
				inv.violatef("tier-conservation", "POSIX read %d bytes but scratch devices served %d (Δ %d)",
					posixRead, localRead, posixRead-localRead)
			}
			if inv.clientWrite != 0 || inv.clientRead != 0 {
				inv.violatef("tier-conservation", "node-local tier leaked PFS client traffic: %d written, %d read",
					inv.clientWrite, inv.clientRead)
			}
		default:
			if posixWrite > inv.clientWrite {
				inv.violatef("layer-ordering", "POSIX wrote %d bytes but PFS clients only %d", posixWrite, inv.clientWrite)
			}
			if posixRead > inv.clientRead {
				inv.violatef("layer-ordering", "POSIX read %d bytes but PFS clients only %d", posixRead, inv.clientRead)
			}
		}
	} else {
		// With faults, bytes may legitimately be lost between the client
		// and the OSTs, but never invented.
		if ostWrite > inv.clientWrite {
			inv.violatef("write-conservation", "OSTs received %d bytes but clients only wrote %d", ostWrite, inv.clientWrite)
		}
	}
	if inv.dropped > 0 {
		// Appended directly: the summary line must not itself be dropped.
		inv.vios = append(inv.vios, Violation{
			Invariant: "checker",
			Detail:    fmt.Sprintf("%d further violations dropped (cap %d)", inv.dropped, maxRetained),
		})
	}
	return inv.vios
}

// checkStageRatio verifies the data-reduction identity across one stage
// boundary: logical bytes == physical bytes x configured ratio, within a
// 1.2% relative tolerance plus one ratio's worth of slop per operation
// (the stage forwards ceil(size/ratio), so each op may round up by a
// fraction of a physical byte). Both directions are checked.
func (inv *Invariants) checkStageRatio(name string, st storage.StageStats, ratio float64) {
	check := func(dir string, logical, physical, ops int64) {
		if logical <= 0 {
			return
		}
		slop := 0.012*float64(logical) + ratio*float64(ops)
		if diff := math.Abs(float64(logical) - float64(physical)*ratio); diff > slop {
			inv.violatef("stage-ratio", "stage %s %s %d logical bytes vs %d physical x ratio %.3g = %.0f (Δ %.0f exceeds slop %.0f)",
				name, dir, logical, physical, ratio, float64(physical)*ratio, diff, slop)
		}
	}
	check("wrote", st.LogicalWritten, st.PhysicalWritten, st.WriteOps)
	check("read", st.LogicalRead, st.PhysicalRead, st.ReadOps)
}

// Violations returns what has been recorded so far without running the
// shutdown checks.
func (inv *Invariants) Violations() []Violation { return inv.vios }

// CheckStats reports how much evidence the checker saw; a run that checks
// zero records validates nothing, so callers should surface these counts.
type CheckStats struct {
	Dispatches   uint64
	TraceRecords uint64
	ClientOps    uint64
	OSTEvents    uint64
}

// Stats returns the evidence counters.
func (inv *Invariants) Stats() CheckStats {
	return CheckStats{
		Dispatches:   inv.dispatches,
		TraceRecords: inv.records,
		ClientOps:    inv.clientOps,
		OSTEvents:    inv.ostEvents,
	}
}
