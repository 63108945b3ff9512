// Package blockdev models storage devices (HDD, SSD, NVMe) as queueing
// servers with per-request service times. Devices are the bottom of the
// simulated I/O path: object storage targets and burst-buffer media are
// built on them.
package blockdev

import (
	"fmt"

	"pioeval/internal/des"
)

// Request describes one device access.
type Request struct {
	Offset int64
	Size   int64
	Write  bool
}

// Model computes the raw service cost of a request, excluding queueing.
// The cost has two parts: a latency component (seek, rotational delay,
// flash access) that can overlap across queued requests, and a transfer
// component that serializes on the media's bandwidth.
type Model interface {
	// Cost returns the latency and transfer components for the request,
	// given the previous request's end offset (for sequentiality
	// detection).
	Cost(req Request, prevEnd int64) (latency, transfer des.Time)
	// Name identifies the model for reports.
	Name() string
}

// ServiceTime returns the total un-queued service time under m.
func ServiceTime(m Model, req Request, prevEnd int64) des.Time {
	lat, xfer := m.Cost(req, prevEnd)
	return lat + xfer
}

// Preset returns the constructor of the preset device model called name
// (hdd, ssd or nvme), in the form pfs.Config.OSTDevice takes, or nil for
// any other name.
func Preset(name string) func() Model {
	switch name {
	case "hdd":
		return func() Model { return DefaultHDD() }
	case "ssd":
		return func() Model { return DefaultSSD() }
	case "nvme":
		return func() Model { return DefaultNVMe() }
	}
	return nil
}

// HDDModel is a rotational disk: seek + rotational latency on
// non-sequential access plus transfer at sustained bandwidth.
type HDDModel struct {
	SeekTime      des.Time // average seek
	RotationalLat des.Time // average rotational latency (half revolution)
	BandwidthBps  float64  // sustained media transfer rate
}

// DefaultHDD returns a 7.2k-rpm-class disk: 8ms seek, 4.16ms rotational,
// 180 MB/s sustained.
func DefaultHDD() *HDDModel {
	return &HDDModel{
		SeekTime:      8 * des.Millisecond,
		RotationalLat: 4160 * des.Microsecond,
		BandwidthBps:  180e6,
	}
}

// Cost implements Model.
func (m *HDDModel) Cost(req Request, prevEnd int64) (latency, transfer des.Time) {
	if req.Offset != prevEnd {
		latency = m.SeekTime + m.RotationalLat
	}
	transfer = des.Time(float64(req.Size) / m.BandwidthBps * float64(des.Second))
	return latency, transfer
}

// Name implements Model.
func (m *HDDModel) Name() string { return "hdd" }

// SSDModel is a flash device: fixed per-op latency plus transfer time, with
// an optional write penalty factor.
type SSDModel struct {
	ReadLatency  des.Time
	WriteLatency des.Time
	ReadBps      float64
	WriteBps     float64
}

// DefaultSSD returns a SATA-SSD-class device: 60us read / 30us write
// latency, 500/450 MB/s.
func DefaultSSD() *SSDModel {
	return &SSDModel{
		ReadLatency:  60 * des.Microsecond,
		WriteLatency: 30 * des.Microsecond,
		ReadBps:      500e6,
		WriteBps:     450e6,
	}
}

// DefaultNVMe returns an NVMe-class device: 15us latency, 3.2/2.8 GB/s.
func DefaultNVMe() *SSDModel {
	return &SSDModel{
		ReadLatency:  15 * des.Microsecond,
		WriteLatency: 15 * des.Microsecond,
		ReadBps:      3.2e9,
		WriteBps:     2.8e9,
	}
}

// Cost implements Model.
func (m *SSDModel) Cost(req Request, prevEnd int64) (latency, transfer des.Time) {
	if req.Write {
		return m.WriteLatency, des.Time(float64(req.Size) / m.WriteBps * float64(des.Second))
	}
	return m.ReadLatency, des.Time(float64(req.Size) / m.ReadBps * float64(des.Second))
}

// Name implements Model.
func (m *SSDModel) Name() string { return "ssd" }

// Device is a queued storage device: a Model behind a fixed-depth service
// queue. All accesses funnel through AccessE, which holds the calling
// process for queueing plus service time; Access awaits it from a
// goroutine proc.
type Device struct {
	eng   *des.Engine
	name  string
	model Model
	queue des.Resource // admission slots (NCQ depth)
	media des.Resource // serial media bandwidth
	deviceState

	// ops recycles AccessE state machines (see devOp).
	ops des.FreeList[devOp, *devOp]
}

// deviceState is the part of a Device a run changes, which Reset zeroes.
type deviceState struct {
	prevEnd int64

	// Statistics.
	reads, writes           uint64
	bytesRead, bytesWritten int64
	busy                    des.Time

	// iostat-style %util accounting: time with >= 1 request in service.
	inflight  int
	busySince des.Time
	busyAccum des.Time

	// slowdown > 1 degrades the device (failure/straggler injection).
	slowdown float64
}

// SetSlowdown injects degradation: every subsequent request's service time
// is multiplied by factor (>= 1). Factor 1 restores nominal speed. Models
// failing media, RAID rebuilds, and straggler servers. Factors below 1
// (including non-positive values, which would corrupt or invert service
// times) are rejected with an error.
func (d *Device) SetSlowdown(factor float64) error {
	if factor < 1 {
		return fmt.Errorf("blockdev: %s: slowdown factor %g invalid, must be >= 1", d.name, factor)
	}
	d.slowdown = factor
	return nil
}

// Slowdown returns the current degradation factor (1 = nominal).
func (d *Device) Slowdown() float64 {
	if d.slowdown < 1 {
		return 1
	}
	return d.slowdown
}

// NewDevice creates a device with the given queue depth: up to queueDepth
// requests may be in flight (their latency components overlap), but data
// transfer serializes on the media bandwidth.
func NewDevice(e *des.Engine, name string, model Model, queueDepth int) *Device {
	if queueDepth < 1 {
		queueDepth = 1
	}
	d := &Device{eng: e, name: name, model: model}
	d.ops.Init(maxFreeOps)
	d.queue.InitAffixed(e, &queueName, name, queueDepth)
	d.media.InitAffixed(e, &mediaName, name, 1)
	d.Reset()
	return d
}

// Reset returns an idle d to its state just after NewDevice: counters
// and utilization zeroed, no slowdown, the sequentiality cursor at
// offset 0, and its queue and media reset (des.Resource.Reset). Its free
// device operations stay warm. NewDevice calls Reset too, so a fresh and
// a reset device are initialized by the same code. Reset d together with
// its engine; it panics with des.ErrLiveReset while a request is in
// flight or queued.
func (d *Device) Reset() {
	if d.inflight > 0 {
		panic(fmt.Errorf("%w: device %s has %d requests in flight", des.ErrLiveReset, d.name, d.inflight))
	}
	d.queue.Reset()
	d.media.Reset()
	d.deviceState = deviceState{}
}

// queueName and mediaName name a device's resources dev.<name> and
// media.<name>.
var (
	queueName = des.NameAffix{Prefix: "dev."}
	mediaName = des.NameAffix{Prefix: "media."}
)

// Access performs the request in simulated time, blocking the caller. It
// awaits AccessE.
func (d *Device) Access(p *des.Proc, req Request) {
	p.Await(func(ep *des.EventProc) { d.AccessE(ep, req, nop) })
}

// nop is the completion of an awaited operation: the awaiting proc
// resumes once the operation's last step returns.
var nop = des.StepFunc(func() {})

// cost returns the request's latency and transfer components under the
// current slowdown, and advances the sequentiality cursor.
func (d *Device) cost(req Request) (lat, xfer des.Time) {
	lat, xfer = d.model.Cost(req, d.prevEnd)
	if d.slowdown > 1 {
		lat = des.Time(float64(lat) * d.slowdown)
		xfer = des.Time(float64(xfer) * d.slowdown)
	}
	d.prevEnd = req.Offset + req.Size
	return lat, xfer
}

// complete retires a served request: it frees the admission slot and
// updates the counters.
func (d *Device) complete(req Request, lat, xfer des.Time) {
	d.inflight--
	if d.inflight == 0 {
		d.busyAccum += d.eng.Now() - d.busySince
	}
	d.queue.Release()
	d.busy += lat + xfer
	if req.Write {
		d.writes++
		d.bytesWritten += req.Size
	} else {
		d.reads++
		d.bytesRead += req.Size
	}
}

// AccessE performs the request in simulated time on the calling EventProc
// and runs k on completion: it takes an admission slot, pays the latency
// component, then holds the media for the transfer component.
func (d *Device) AccessE(ep *des.EventProc, req Request, k des.Step) {
	if req.Size < 0 || req.Offset < 0 {
		panic(fmt.Sprintf("blockdev: bad request %+v", req))
	}
	o := d.ops.Get()
	o.d, o.ep, o.req, o.k, o.phase = d, ep, req, k, opQueued
	d.queue.AcquireE(ep, o)
}

// maxFreeOps caps a device's AccessE free list: a deep OST queue frees a
// burst of state at once, of which only this many are kept (see
// des.FreeList).
const maxFreeOps = 64

// devOp is the state machine behind AccessE: admission slot, latency,
// media transfer, completion. The struct is its own continuation: every
// blocking point re-enters Step. It returns to its device's free list
// when its last step fires.
type devOp struct {
	d         *Device
	ep        *des.EventProc
	req       Request
	lat, xfer des.Time
	phase     uint8
	des.Pooled
	k des.Step
}

// devOp phases: the step that runs when the pending blocking point fires.
const (
	opQueued   uint8 = iota // holds an admission slot
	opLatency               // latency component served
	opMedia                 // holds the media
	opTransfer              // transfer component served
)

func (o *devOp) Step() {
	if o.Recycled() {
		panic("blockdev: device operation resumed after it was recycled")
	}
	d := o.d
	for {
		switch o.phase {
		case opQueued:
			if d.inflight == 0 {
				d.busySince = o.ep.Now()
			}
			d.inflight++
			o.lat, o.xfer = d.cost(o.req)
			o.phase = opLatency
			if o.lat > 0 {
				o.ep.Wait(o.lat, o)
				return
			}
		case opLatency:
			if o.xfer <= 0 {
				o.finish()
				return
			}
			o.phase = opMedia
			d.media.AcquireE(o.ep, o)
			return
		case opMedia:
			o.phase = opTransfer
			o.ep.Wait(o.xfer, o)
			return
		case opTransfer:
			d.media.Release()
			o.finish()
			return
		}
	}
}

// finish accounts the completed request, recycles o and runs its
// continuation.
func (o *devOp) finish() {
	d, k := o.d, o.k
	d.complete(o.req, o.lat, o.xfer)
	o.ep, o.k = nil, nil
	d.ops.Put(o)
	k.Step()
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Model returns the underlying service-time model.
func (d *Device) Model() Model { return d.model }

// Stats reports cumulative counters.
func (d *Device) Stats() DeviceStats {
	return DeviceStats{
		Reads:        d.reads,
		Writes:       d.writes,
		BytesRead:    d.bytesRead,
		BytesWritten: d.bytesWritten,
		BusyTime:     d.busy,
		QueueLen:     d.queue.QueueLen(),
		PeakQueue:    d.queue.PeakQueueLen(),
	}
}

// DeviceStats is a snapshot of device counters.
type DeviceStats struct {
	Reads        uint64
	Writes       uint64
	BytesRead    int64
	BytesWritten int64
	BusyTime     des.Time
	QueueLen     int
	PeakQueue    int
}

// Utilization returns the iostat-style %util: the fraction of elapsed time
// the device had at least one request in service.
func (d *Device) Utilization() float64 {
	now := d.eng.Now()
	if now == 0 {
		return 0
	}
	busy := d.busyAccum
	if d.inflight > 0 {
		busy += now - d.busySince
	}
	return float64(busy) / float64(now)
}
