package pfs

import (
	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/netsim"
)

// ost is one object storage target: a block device plus an object
// allocation map that lays objects out contiguously so that sequential
// logical access stays sequential on the media (important for the HDD
// model's seek behaviour).
type ost struct {
	id  int
	oss *netsim.Node // the OSS's node on the server fabric
	dev *blockdev.Device

	objBase  map[objKey]int64 // object -> physical base offset
	allocPtr int64

	readOps, writeOps uint64

	// Crash state (fault injection): a down OST answers no requests.
	down      bool
	downSince des.Time
}

func newOST(id int, oss *netsim.Node, dev *blockdev.Device) *ost {
	return &ost{id: id, oss: oss, dev: dev, objBase: make(map[objKey]int64)}
}

// reset empties the object map and zeroes the counters, the crash state
// and the device (blockdev.Device.Reset).
func (o *ost) reset() {
	o.dev.Reset()
	clear(o.objBase)
	*o = ost{id: o.id, oss: o.oss, dev: o.dev, objBase: o.objBase}
}

// physOffset maps (object, logical offset) to a stable physical offset,
// allocating a generous contiguous region per object on first touch.
func (o *ost) physOffset(obj objKey, logical int64) int64 {
	base, ok := o.objBase[obj]
	if !ok {
		base = o.allocPtr
		o.objBase[obj] = base
		// Reserve 1 GiB of address space per object; the device model
		// only cares about contiguity, not capacity.
		o.allocPtr += 1 << 30
	}
	return base + logical
}

// countOp counts one completed object I/O.
func (o *ost) countOp(write bool) {
	if write {
		o.writeOps++
	} else {
		o.readOps++
	}
}

// OSTStats is a snapshot of one OST's counters.
type OSTStats struct {
	ID           int
	OSSNode      string
	ReadOps      uint64
	WriteOps     uint64
	BytesRead    int64
	BytesWritten int64
	Utilization  float64
	QueueLen     int
	PeakQueue    int
	// Down reports the crash state; Slowdown the degradation factor
	// (1 = nominal). Failure detectors key off these.
	Down     bool
	Slowdown float64
}

func (o *ost) stats() OSTStats {
	st := o.dev.Stats()
	return OSTStats{
		ID:           o.id,
		OSSNode:      o.oss.Name(),
		ReadOps:      o.readOps,
		WriteOps:     o.writeOps,
		BytesRead:    st.BytesRead,
		BytesWritten: st.BytesWritten,
		Utilization:  o.dev.Utilization(),
		QueueLen:     st.QueueLen,
		PeakQueue:    st.PeakQueue,
		Down:         o.down,
		Slowdown:     o.dev.Slowdown(),
	}
}
