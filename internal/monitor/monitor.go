// Package monitor implements storage-system-level monitoring: a periodic
// server-side statistics sampler (per-OST and MDS load, the data center
// operators collect), an FSMonitor-style metadata event stream, and an
// end-to-end correlator that joins client-side job activity with
// server-side load to find interfering jobs — the three side channels the
// paper's §IV-A2 lists beyond profiles and traces.
package monitor

import (
	"pioeval/internal/des"
	"pioeval/internal/pfs"
)

// Sample is one server-side statistics snapshot.
type Sample struct {
	At   des.Time
	OSTs []pfs.OSTStats
	MDS  pfs.MDSStats
}

// Sampler periodically snapshots server counters, like a site telemetry
// collector polling /proc on the storage servers.
type Sampler struct {
	fs       *pfs.FS
	interval des.Time
	samples  []Sample
	stopped  bool
}

// NewSampler starts a sampler on fs with the given interval, sampling until
// simulated time `until` (inclusive) or until Stop is called. A sampler
// must be bounded — an unbounded periodic process would keep the event
// queue alive forever.
func NewSampler(e *des.Engine, fs *pfs.FS, interval, until des.Time) *Sampler {
	if interval <= 0 {
		panic("monitor: non-positive sampling interval")
	}
	s := &Sampler{fs: fs, interval: interval}
	e.Spawn("monitor.sampler", func(p *des.Proc) {
		for !s.stopped && p.Now() <= until {
			s.samples = append(s.samples, Sample{At: p.Now(), OSTs: fs.OSTStats(), MDS: fs.MDSStats()})
			p.Wait(interval)
		}
	})
	return s
}

// Stop ends sampling after the current interval.
func (s *Sampler) Stop() { s.stopped = true }

// Samples returns the collected snapshots.
func (s *Sampler) Samples() []Sample { return s.samples }

// Rates holds per-interval deltas derived from two adjacent samples.
type Rates struct {
	At            des.Time
	Interval      des.Time
	ReadBps       float64 // aggregate OST read bandwidth
	WriteBps      float64 // aggregate OST write bandwidth
	MDSOpsPerSec  float64
	MaxOSTUtil    float64 // highest per-OST utilization in the window
	LoadImbalance float64 // max/mean OST bytes moved this interval (1 = perfect)
}

// DeriveRates converts the sample series into per-interval rates.
func (s *Sampler) DeriveRates() []Rates {
	var out []Rates
	for i := 1; i < len(s.samples); i++ {
		prev, cur := s.samples[i-1], s.samples[i]
		dt := cur.At - prev.At
		if dt <= 0 {
			continue
		}
		secs := dt.Seconds()
		var dRead, dWrite int64
		var perOST []float64
		maxUtil := 0.0
		for j := range cur.OSTs {
			r := cur.OSTs[j].BytesRead - prev.OSTs[j].BytesRead
			w := cur.OSTs[j].BytesWritten - prev.OSTs[j].BytesWritten
			dRead += r
			dWrite += w
			perOST = append(perOST, float64(r+w))
			if u := cur.OSTs[j].Utilization; u > maxUtil {
				maxUtil = u
			}
		}
		var maxB, sumB float64
		for _, b := range perOST {
			if b > maxB {
				maxB = b
			}
			sumB += b
		}
		imb := 1.0
		if sumB > 0 && len(perOST) > 0 {
			mean := sumB / float64(len(perOST))
			imb = maxB / mean
		}
		out = append(out, Rates{
			At:            cur.At,
			Interval:      dt,
			ReadBps:       float64(dRead) / secs,
			WriteBps:      float64(dWrite) / secs,
			MDSOpsPerSec:  float64(cur.MDS.TotalOps-prev.MDS.TotalOps) / secs,
			MaxOSTUtil:    maxUtil,
			LoadImbalance: imb,
		})
	}
	return out
}

// FSEvent is an FSMonitor-style metadata event.
type FSEvent struct {
	At     des.Time
	Op     string // create, unlink, mkdir, rmdir
	Path   string
	Client string
}

// FSWatcher collects namespace-changing events from the file system.
// Install it with Watch.
type FSWatcher struct {
	events []FSEvent
}

// Watch installs the watcher as fs's operation observer. It does not
// chain: pfs.FS holds one observer and SetOpObserver replaces it, so the
// last caller wins. Watch drops any observer installed before it (for
// example validate.Arm's), and a later one drops the watcher's events.
// ROADMAP item 2 replaces the single-slot hooks with a multi-subscriber
// stream.
func Watch(fs *pfs.FS) *FSWatcher {
	w := &FSWatcher{}
	fs.SetOpObserver(func(ev pfs.OpEvent) {
		switch ev.Op {
		case "create", "unlink", "mkdir", "rmdir":
			w.events = append(w.events, FSEvent{At: ev.End, Op: ev.Op, Path: ev.Path, Client: ev.Client})
		}
	})
	return w
}

// Events returns the collected metadata events.
func (w *FSWatcher) Events() []FSEvent { return w.events }

// JobActivity describes one job's I/O interval for correlation.
type JobActivity struct {
	JobID   string
	Start   des.Time
	End     des.Time
	Bytes   int64 // bytes the job moved (from its client-side profile)
	MetaOps uint64
}

// Interference is a pair of jobs whose I/O intervals overlap while the
// storage system was near saturation.
type Interference struct {
	A, B    string
	Overlap des.Time
	// PeakUtil is the highest OST utilization observed during the overlap.
	PeakUtil float64
}

// Correlate joins job activity windows against server rates and reports job
// pairs that overlapped while any OST exceeded utilThreshold — the
// end-to-end analysis the paper's §IV-A2 calls for.
func Correlate(jobs []JobActivity, rates []Rates, utilThreshold float64) []Interference {
	var out []Interference
	for i := 0; i < len(jobs); i++ {
		for j := i + 1; j < len(jobs); j++ {
			a, b := jobs[i], jobs[j]
			lo, hi := maxT(a.Start, b.Start), minT(a.End, b.End)
			if hi <= lo {
				continue
			}
			peak := 0.0
			for _, rt := range rates {
				if rt.At >= lo && rt.At <= hi && rt.MaxOSTUtil > peak {
					peak = rt.MaxOSTUtil
				}
			}
			if peak >= utilThreshold {
				out = append(out, Interference{A: a.JobID, B: b.JobID, Overlap: hi - lo, PeakUtil: peak})
			}
		}
	}
	return out
}

func maxT(a, b des.Time) des.Time {
	if a > b {
		return a
	}
	return b
}

func minT(a, b des.Time) des.Time {
	if a < b {
		return a
	}
	return b
}
