package monitor

import (
	"pioeval/internal/des"
	"pioeval/internal/pfs"
)

// Incident is one detected OST outage: when the target actually went
// down, when the detector noticed, and when it observed recovery.
type Incident struct {
	OST int
	// DownAt is the true crash time (from the file system's fault state).
	DownAt des.Time
	// DetectedAt is when the detector declared the OST failed, after
	// Threshold consecutive missed heartbeats.
	DetectedAt des.Time
	// RecoveredAt is when the detector first saw the OST healthy again;
	// zero while the outage is still open.
	RecoveredAt des.Time
}

// Open reports whether the incident is still in progress.
func (in Incident) Open() bool { return in.RecoveredAt == 0 }

// MTTD is this incident's time to detect.
func (in Incident) MTTD() des.Time { return in.DetectedAt - in.DownAt }

// MTTR is this incident's observed time to repair (detection to recovery).
func (in Incident) MTTR() des.Time {
	if in.Open() {
		return 0
	}
	return in.RecoveredAt - in.DetectedAt
}

// FailureDetector polls per-OST health like a missed-heartbeat watchdog:
// every Interval it "pings" each OST, and after Threshold consecutive
// missed beats it declares the target failed and opens an Incident. It is
// the monitoring half of a resilience experiment — the fault campaign
// creates outages, the detector measures how long they take to see and
// to clear.
type FailureDetector struct {
	fs        *pfs.FS
	interval  des.Time
	threshold int
	missed    map[int]int
	open      map[int]int // OST id -> index into incidents
	incidents []Incident
	stopped   bool
}

// NewFailureDetector starts a detector on fs that heartbeats every
// interval and declares failure after threshold consecutive misses
// (threshold <= 0 means 1: declare on the first missed beat). Like
// Sampler it must be bounded by `until` to let the event queue drain.
func NewFailureDetector(e *des.Engine, fs *pfs.FS, interval des.Time, threshold int, until des.Time) *FailureDetector {
	if interval <= 0 {
		panic("monitor: non-positive heartbeat interval")
	}
	if threshold <= 0 {
		threshold = 1
	}
	d := &FailureDetector{
		fs: fs, interval: interval, threshold: threshold,
		missed: map[int]int{}, open: map[int]int{},
	}
	e.Spawn("monitor.failuredetector", func(p *des.Proc) {
		for !d.stopped && p.Now() <= until {
			d.beat(p.Now())
			p.Wait(interval)
		}
	})
	return d
}

// beat is one heartbeat round over every OST.
func (d *FailureDetector) beat(now des.Time) {
	for _, st := range d.fs.OSTStats() {
		if st.Down {
			d.missed[st.ID]++
			if _, isOpen := d.open[st.ID]; !isOpen && d.missed[st.ID] >= d.threshold {
				downAt := now
				if since, ok := d.fs.OSTDownSince(st.ID); ok {
					downAt = since
				}
				d.open[st.ID] = len(d.incidents)
				d.incidents = append(d.incidents, Incident{OST: st.ID, DownAt: downAt, DetectedAt: now})
			}
			continue
		}
		d.missed[st.ID] = 0
		if idx, isOpen := d.open[st.ID]; isOpen {
			d.incidents[idx].RecoveredAt = now
			delete(d.open, st.ID)
		}
	}
}

// Stop ends heartbeating after the current interval.
func (d *FailureDetector) Stop() { d.stopped = true }

// Incidents returns every detected outage, in detection order.
func (d *FailureDetector) Incidents() []Incident { return d.incidents }

// FailureReport aggregates detector outcomes for a run.
type FailureReport struct {
	Incidents  int
	Unresolved int
	// MeanTTD is the mean detection delay (crash to declaration); the
	// heartbeat model bounds it by interval*threshold.
	MeanTTD des.Time
	// MeanTTR is the mean declared-to-recovered time over closed incidents.
	MeanTTR des.Time
}

// Report summarizes the incident log into MTTD/MTTR metrics.
func (d *FailureDetector) Report() FailureReport {
	r := FailureReport{Incidents: len(d.incidents)}
	var ttd, ttr des.Time
	closed := 0
	for _, in := range d.incidents {
		ttd += in.MTTD()
		if in.Open() {
			r.Unresolved++
			continue
		}
		ttr += in.MTTR()
		closed++
	}
	if len(d.incidents) > 0 {
		r.MeanTTD = ttd / des.Time(len(d.incidents))
	}
	if closed > 0 {
		r.MeanTTR = ttr / des.Time(closed)
	}
	return r
}
