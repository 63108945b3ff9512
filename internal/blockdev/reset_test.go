package blockdev

import (
	"errors"
	"fmt"
	"testing"

	"pioeval/internal/des"
)

// deviceRun issues a mix of random, sequential, read and write requests
// from concurrent procs, so the queue and the media contend, and returns
// the completion times and the device's view.
func deviceRun(e *des.Engine, d *Device) string {
	var out string
	for i := 0; i < 6; i++ {
		req := Request{Offset: int64(i%3) << 30, Size: 1 << 16, Write: i%2 == 0}
		e.Spawn("io", func(p *des.Proc) {
			d.Access(p, req)
			out += fmt.Sprintf("%d ", p.Now())
		})
	}
	e.Run(des.MaxTime)
	return out + deviceView(d)
}

// deviceView is everything a caller can observe of a device.
func deviceView(d *Device) string {
	return fmt.Sprintf("%+v util=%g slowdown=%g", d.Stats(), d.Utilization(), d.Slowdown())
}

// TestDeviceResetMatchesFresh: a device that served a slowed-down run and
// was reset with its engine reports what a fresh one does and serves the
// same run in the same time.
func TestDeviceResetMatchesFresh(t *testing.T) {
	used := des.NewEngine(1)
	d := NewDevice(used, "d", DefaultHDD(), 2)
	if err := d.SetSlowdown(3); err != nil {
		t.Fatal(err)
	}
	deviceRun(used, d)
	used.Reset(1)
	d.Reset()

	fresh := des.NewEngine(1)
	fd := NewDevice(fresh, "d", DefaultHDD(), 2)
	if got, want := deviceView(d), deviceView(fd); got != want {
		t.Fatalf("reset device differs from a fresh one:\n got %s\nwant %s", got, want)
	}
	if got, want := deviceRun(used, d), deviceRun(fresh, fd); got != want {
		t.Fatalf("reset device serves differently:\n got %s\nwant %s", got, want)
	}
}

// TestDeviceResetInFlightPanics: a device with a request in service or
// queued does not reset.
func TestDeviceResetInFlightPanics(t *testing.T) {
	e := des.NewEngine(1)
	d := NewDevice(e, "d", DefaultHDD(), 1)
	for i := 0; i < 2; i++ {
		e.Spawn("io", func(p *des.Proc) { d.Access(p, Request{Size: 1 << 20}) })
	}
	e.Run(des.Millisecond)
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, des.ErrLiveReset) {
			t.Fatalf("panic %v, want des.ErrLiveReset", err)
		}
	}()
	d.Reset()
}
