package monitor

import (
	"testing"

	"pioeval/internal/des"
)

func TestFailureDetectorMeasuresMTTDAndMTTR(t *testing.T) {
	e := des.NewEngine(4)
	fs := newFS(e)
	interval := 10 * des.Millisecond
	d := NewFailureDetector(e, fs, interval, 2, des.Second)
	crashAt := 105 * des.Millisecond
	recoverAt := 400 * des.Millisecond
	e.After(crashAt, func() {
		if err := fs.CrashOST(3); err != nil {
			t.Errorf("crash: %v", err)
		}
	})
	e.After(recoverAt, func() {
		if err := fs.RecoverOST(3); err != nil {
			t.Errorf("recover: %v", err)
		}
	})
	e.Run(des.MaxTime)

	incidents := d.Incidents()
	if len(incidents) != 1 {
		t.Fatalf("incidents = %+v, want exactly 1", incidents)
	}
	in := incidents[0]
	if in.OST != 3 {
		t.Errorf("incident OST = %d, want 3", in.OST)
	}
	if in.DownAt != crashAt {
		t.Errorf("DownAt = %v, want true crash time %v", in.DownAt, crashAt)
	}
	// Two missed 10ms heartbeats after a crash at 105ms: detection at the
	// second down poll, t=120ms.
	if in.DetectedAt != 120*des.Millisecond {
		t.Errorf("DetectedAt = %v, want 120ms", in.DetectedAt)
	}
	if in.Open() {
		t.Fatal("incident should have closed after recovery")
	}
	// First healthy poll after recovery at 400ms is t=400ms (poll grid).
	if in.RecoveredAt < recoverAt || in.RecoveredAt > recoverAt+interval {
		t.Errorf("RecoveredAt = %v, want within one beat of %v", in.RecoveredAt, recoverAt)
	}
	rep := d.Report()
	if rep.Incidents != 1 || rep.Unresolved != 0 {
		t.Errorf("report = %+v", rep)
	}
	if rep.MeanTTD != in.MTTD() || rep.MeanTTR != in.MTTR() {
		t.Errorf("report means %v/%v, incident %v/%v", rep.MeanTTD, rep.MeanTTR, in.MTTD(), in.MTTR())
	}
	// The heartbeat model bounds detection delay by interval*threshold.
	if rep.MeanTTD <= 0 || rep.MeanTTD > 2*interval {
		t.Errorf("MTTD = %v, want in (0, %v]", rep.MeanTTD, 2*interval)
	}
}

func TestFailureDetectorLeavesOpenIncidentUnresolved(t *testing.T) {
	e := des.NewEngine(5)
	fs := newFS(e)
	d := NewFailureDetector(e, fs, 10*des.Millisecond, 1, 200*des.Millisecond)
	e.After(50*des.Millisecond, func() { _ = fs.CrashOST(0) })
	e.Run(des.MaxTime)
	rep := d.Report()
	if rep.Incidents != 1 || rep.Unresolved != 1 {
		t.Fatalf("report = %+v, want one open incident", rep)
	}
	if rep.MeanTTR != 0 {
		t.Errorf("MTTR over zero closed incidents = %v, want 0", rep.MeanTTR)
	}
}
