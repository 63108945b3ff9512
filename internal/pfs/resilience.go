package pfs

import (
	"fmt"

	"pioeval/internal/des"
)

// ResiliencePolicy configures the client-side fault handling: simulated
// per-RPC timeouts, bounded retry with exponential backoff + jitter, and
// the degraded-mode read path. The zero value is fail-fast: no timeout
// wait, no retries, reads abort when a stripe's OST is unreachable —
// exactly the pre-resilience behaviour, minus the panics.
type ResiliencePolicy struct {
	// RPCTimeout is the simulated time a client waits on an unanswered
	// RPC (crashed OST, unavailable MDS) before declaring it dead.
	// 0 fails immediately without waiting.
	RPCTimeout des.Time
	// MaxRetries bounds retry attempts after the first try (0 = none).
	MaxRetries int
	// BackoffBase is the delay before the first retry; each further
	// retry doubles it, capped at BackoffMax.
	BackoffBase des.Time
	// BackoffMax caps the exponential backoff (0 = uncapped).
	BackoffMax des.Time
	// JitterFrac adds a uniform random [0, JitterFrac) fraction of the
	// backoff to decorrelate retry storms. Drawn from the engine's
	// seeded RNG, so runs stay deterministic.
	JitterFrac float64
	// DegradedReads lets reads complete partially when some stripes are
	// unreachable after retries: healthy OSTs are read, missing bytes
	// are accounted, and the read returns a *DegradedReadError instead
	// of aborting.
	DegradedReads bool
}

// DefaultResilience returns a production-flavoured policy: 20ms RPC
// timeout, 6 retries backing off 5ms..80ms with 20% jitter, degraded
// reads enabled.
func DefaultResilience() ResiliencePolicy {
	return ResiliencePolicy{
		RPCTimeout:    20 * des.Millisecond,
		MaxRetries:    6,
		BackoffBase:   5 * des.Millisecond,
		BackoffMax:    80 * des.Millisecond,
		JitterFrac:    0.2,
		DegradedReads: true,
	}
}

// backoff returns the simulated delay before retry attempt (0-based).
func (pol ResiliencePolicy) backoff(e *des.Engine, attempt int) des.Time {
	return des.ExpBackoff(e.RNG(), "pfs.backoff", pol.BackoffBase, pol.BackoffMax, attempt, pol.JitterFrac)
}

// FaultRecord is one server-state transition, for timelines and
// determinism checks.
type FaultRecord struct {
	At    des.Time
	Kind  string // "ost-crash", "ost-recover", "ost-slowdown", "mds-down", "mds-up", "transient-rate", "link-degrade"
	OST   int    // -1 when not OST-scoped
	Value float64
}

func (fs *FS) recordFault(kind string, ost int, value float64) {
	fs.faultLog = append(fs.faultLog, FaultRecord{At: fs.eng.Now(), Kind: kind, OST: ost, Value: value})
}

// FaultLog returns the chronological record of injected fault transitions.
func (fs *FS) FaultLog() []FaultRecord { return fs.faultLog }

// CrashOST marks OST id as crashed: subsequent requests to it go
// unanswered and clients observe timeouts (ErrOSTDown). Requests already
// in service at the device complete — the model crashes the server's
// request intake, not the platters.
func (fs *FS) CrashOST(id int) error {
	if id < 0 || id >= len(fs.osts) {
		return fmt.Errorf("%w: %d", ErrNoSuchOST, id)
	}
	o := fs.osts[id]
	if !o.down {
		o.down = true
		o.downSince = fs.eng.Now()
		fs.recordFault("ost-crash", id, 0)
	}
	return nil
}

// RecoverOST returns a crashed OST to service.
func (fs *FS) RecoverOST(id int) error {
	if id < 0 || id >= len(fs.osts) {
		return fmt.Errorf("%w: %d", ErrNoSuchOST, id)
	}
	o := fs.osts[id]
	if o.down {
		o.down = false
		fs.recordFault("ost-recover", id, 0)
	}
	return nil
}

// OSTDown reports whether OST id is currently crashed (false for unknown
// ids).
func (fs *FS) OSTDown(id int) bool {
	return id >= 0 && id < len(fs.osts) && fs.osts[id].down
}

// OSTDownSince returns the crash time of OST id; ok is false when the OST
// is up or unknown.
func (fs *FS) OSTDownSince(id int) (at des.Time, ok bool) {
	if !fs.OSTDown(id) {
		return 0, false
	}
	return fs.osts[id].downSince, true
}

// SetMDSAvailable toggles metadata-server availability. While down,
// metadata RPCs go unanswered and clients observe ErrMDSUnavailable after
// the policy timeout.
func (fs *FS) SetMDSAvailable(up bool) {
	if fs.mds.down == up {
		fs.mds.down = !up
		if up {
			fs.recordFault("mds-up", -1, 0)
		} else {
			fs.recordFault("mds-down", -1, 0)
		}
	}
}

// SetTransientErrorRate makes each data RPC fail server-side with ErrIO
// with probability rate (0 disables). Failures are drawn from the
// engine's seeded RNG, so campaigns replay identically.
func (fs *FS) SetTransientErrorRate(rate float64) error {
	if rate < 0 || rate > 1 {
		return fmt.Errorf("pfs: transient error rate %g outside [0,1]", rate)
	}
	if rate != fs.transientRate {
		fs.transientRate = rate
		fs.recordFault("transient-rate", -1, rate)
	}
	return nil
}

// SetLinkDegradation multiplies all fabric transfer times by factor
// (>= 1; 1 restores nominal) — a degraded-network fault across both the
// compute and storage fabrics.
func (fs *FS) SetLinkDegradation(factor float64) error {
	if factor < 1 {
		return fmt.Errorf("%w: got %g", ErrBadSlowdown, factor)
	}
	if err := fs.compute.SetDegradation(factor); err != nil {
		return err
	}
	if fs.storage != nil {
		if err := fs.storage.SetDegradation(factor); err != nil {
			return err
		}
	}
	fs.recordFault("link-degrade", -1, factor)
	return nil
}

// ClientStatsTotal sums the counters of every client created on this file
// system since New or the last Reset — the fleet-wide view of retries,
// timeouts, failures, and degraded reads.
func (fs *FS) ClientStatsTotal() ClientStats {
	var t ClientStats
	for _, c := range fs.clientList {
		s := c.Stats()
		t.MetaRPCs += s.MetaRPCs
		t.ReadRPCs += s.ReadRPCs
		t.WriteRPCs += s.WriteRPCs
		t.BytesSent += s.BytesSent
		t.BytesRecv += s.BytesRecv
		t.Retries += s.Retries
		t.TimedOutRPCs += s.TimedOutRPCs
		t.FailedRPCs += s.FailedRPCs
		t.DegradedReads += s.DegradedReads
		t.BytesMissing += s.BytesMissing
	}
	return t
}
