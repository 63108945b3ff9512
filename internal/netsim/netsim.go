// Package netsim models cluster network fabrics for the I/O-path simulator.
//
// A Fabric is a set of nodes connected through per-node links (NIC injection
// bandwidth) and an aggregate backplane. Message cost = per-hop latency +
// serialization time on the sender link, the backplane, and the receiver
// link, with contention modeled by FIFO queueing on each resource. Two
// presets mirror Figure 1 of the paper: an InfiniBand-like compute fabric
// and a slower Ethernet-like storage fabric.
package netsim

import (
	"fmt"

	"pioeval/internal/des"
)

// Bandwidth is bytes per second.
type Bandwidth float64

// Common bandwidth units.
const (
	KBps Bandwidth = 1e3
	MBps Bandwidth = 1e6
	GBps Bandwidth = 1e9
)

// transferTime returns the serialization delay for size bytes at bw.
func transferTime(size int64, bw Bandwidth) des.Time {
	if bw <= 0 {
		return 0
	}
	return des.Time(float64(size) / float64(bw) * float64(des.Second))
}

// Config describes a fabric.
type Config struct {
	Name string
	// Latency is the one-way propagation + switching latency per message.
	Latency des.Time
	// LinkBandwidth is each node's NIC injection/ejection bandwidth.
	LinkBandwidth Bandwidth
	// BackplaneBandwidth caps aggregate traffic; 0 means unconstrained.
	BackplaneBandwidth Bandwidth
	// BackplaneChannels is the parallelism of the backplane resource
	// (number of concurrent full-rate transfers). Default 1 when a
	// backplane bandwidth is set.
	BackplaneChannels int
	// MTU splits messages into packets for pipelining; 0 disables
	// packetization (whole message serializes as one unit).
	MTU int64
}

// InfiniBandLike returns a config resembling an EDR InfiniBand compute
// fabric: ~1us latency, 12 GB/s links.
func InfiniBandLike() Config {
	return Config{
		Name:               "ib",
		Latency:            1 * des.Microsecond,
		LinkBandwidth:      12 * GBps,
		BackplaneBandwidth: 0,
	}
}

// EthernetLike returns a config resembling a 10 GbE storage fabric:
// ~20us latency, 1.25 GB/s links.
func EthernetLike() Config {
	return Config{
		Name:               "eth",
		Latency:            20 * des.Microsecond,
		LinkBandwidth:      1.25 * GBps,
		BackplaneBandwidth: 0,
	}
}

// Fabric is an instantiated network. Create with NewFabric, then AddNode for
// every endpoint.
type Fabric struct {
	eng       *des.Engine
	cfg       Config
	nodes     map[string]*Node
	backplane *des.Resource

	bytesMoved int64
	messages   uint64

	// degradation >= 1 multiplies latency and serialization times
	// (fault injection: failing links, congested uplinks).
	degradation float64

	// xferFree recycles TransferE state machines (see transferE).
	xferFree []*transferE
}

// Node is one endpoint of a fabric, returned by AddNode: a NIC with an
// injection (send) and an ejection (receive) link. Transfers name their
// endpoints by handle, so moving a message costs no name lookup.
type Node struct {
	fab  *Fabric
	name string
	in   *des.Resource // ejection (receive) link
	out  *des.Resource // injection (send) link
}

// Name returns the node name given to AddNode.
func (n *Node) Name() string { return n.name }

// NewFabric creates a fabric on engine e with config cfg.
func NewFabric(e *des.Engine, cfg Config) *Fabric {
	f := &Fabric{eng: e, cfg: cfg, nodes: make(map[string]*Node)}
	if cfg.BackplaneBandwidth > 0 {
		ch := cfg.BackplaneChannels
		if ch < 1 {
			ch = 1
		}
		f.backplane = des.NewResource(e, cfg.Name+".backplane", ch)
	}
	return f
}

// AddNode registers a new endpoint and returns its handle; it panics on
// duplicates.
func (f *Fabric) AddNode(name string) *Node {
	if _, dup := f.nodes[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %q", name))
	}
	n := &Node{
		fab:  f,
		name: name,
		in:   des.NewResource(f.eng, f.cfg.Name+"."+name+".in", 1),
		out:  des.NewResource(f.eng, f.cfg.Name+"."+name+".out", 1),
	}
	f.nodes[name] = n
	return n
}

// Node returns the handle of the endpoint registered as name, or nil and
// false when there is none.
func (f *Fabric) Node(name string) (*Node, bool) {
	n, ok := f.nodes[name]
	return n, ok
}

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// SetDegradation degrades every transfer on the fabric by factor (>= 1;
// 1 restores nominal). Fault injection for failing or congested links.
func (f *Fabric) SetDegradation(factor float64) error {
	if factor < 1 {
		return fmt.Errorf("netsim: %s: degradation factor %g invalid, must be >= 1", f.cfg.Name, factor)
	}
	f.degradation = factor
	return nil
}

// Degradation returns the current link degradation factor (1 = nominal).
func (f *Fabric) Degradation() float64 {
	if f.degradation < 1 {
		return 1
	}
	return f.degradation
}

// scaled applies the degradation factor to a duration.
func (f *Fabric) scaled(t des.Time) des.Time {
	if f.degradation > 1 {
		return des.Time(float64(t) * f.degradation)
	}
	return t
}

// begin validates a transfer and counts it; it reports the chunk size the
// message serializes in.
func (f *Fabric) begin(src, dst *Node, size int64) (chunk int64) {
	if size < 0 {
		panic("netsim: negative transfer size")
	}
	if src == nil || src.fab != f {
		panic(fmt.Sprintf("netsim: %s: src is not a node of this fabric", f.cfg.Name))
	}
	if dst == nil || dst.fab != f {
		panic(fmt.Sprintf("netsim: %s: dst is not a node of this fabric", f.cfg.Name))
	}
	f.messages++
	f.bytesMoved += size
	chunk = f.cfg.MTU
	if chunk <= 0 || chunk > size {
		chunk = size
	}
	return chunk
}

// Transfer moves size bytes from src to dst in simulated time, blocking the
// calling process for the full transfer duration (latency + serialization
// with queueing on both links and the backplane). It awaits TransferE.
func (f *Fabric) Transfer(p *des.Proc, src, dst *Node, size int64) {
	p.Await(func(ep *des.EventProc) { f.TransferE(ep, src, dst, size, nop) })
}

// nop is the completion of an awaited operation: the awaiting proc
// resumes once the operation's last step returns.
func nop() {}

// maxFreeTransfers caps a fabric's TransferE free list. A burst of
// concurrent transfers (every rank of a shard queued at one NIC) frees far
// more state than steady state reuses; only this many are kept.
const maxFreeTransfers = 256

// transferE is the state machine behind TransferE. One chunk cycle is:
// acquire the sender link, (acquire the backplane), acquire the receiver
// link, hold for the serialization time, release in reverse order, next
// chunk. Every step re-enters resume, the one continuation bound when the
// struct is first allocated; the struct returns to its fabric's free list
// when its last step fires, so a steady-state transfer allocates nothing.
type transferE struct {
	f       *Fabric
	ep      *des.EventProc
	s, d    *Node
	remain  int64
	chunk   int64
	n       int64    // current chunk size
	t       des.Time // current chunk serialization time
	phase   uint8
	k       func()
	resumeF func()
}

// transferE phases: the step that runs when the pending blocking point
// fires.
const (
	xfChunk     uint8 = iota // latency paid or chunk released: start the next chunk
	xfOut                    // holds the sender link
	xfBackplane              // holds the backplane
	xfIn                     // holds the receiver link
	xfSent                   // chunk serialized
)

func (t *transferE) resume() {
	f := t.f
	for {
		switch t.phase {
		case xfChunk:
			if t.remain <= 0 {
				k := t.k
				f.putTransfer(t)
				k()
				return
			}
			t.n = min(t.chunk, t.remain)
			t.phase = xfOut
			t.s.out.AcquireE(t.ep, t.resumeF)
			return
		case xfOut:
			t.t = f.scaled(transferTime(t.n, f.cfg.LinkBandwidth))
			if f.backplane != nil {
				t.phase = xfBackplane
				f.backplane.AcquireE(t.ep, t.resumeF)
				return
			}
			t.phase = xfIn
			t.d.in.AcquireE(t.ep, t.resumeF)
			return
		case xfBackplane:
			if bt := f.scaled(transferTime(t.n, f.cfg.BackplaneBandwidth)); bt > t.t {
				t.t = bt
			}
			t.phase = xfIn
			t.d.in.AcquireE(t.ep, t.resumeF)
			return
		case xfIn:
			t.phase = xfSent
			t.ep.Wait(t.t, t.resumeF)
			return
		case xfSent:
			t.d.in.Release()
			if f.backplane != nil {
				f.backplane.Release()
			}
			t.s.out.Release()
			t.remain -= t.n
			t.phase = xfChunk
		}
	}
}

// putTransfer returns t to the free list, dropping its references.
func (f *Fabric) putTransfer(t *transferE) {
	t.ep, t.s, t.d, t.k = nil, nil, nil, nil
	if len(f.xferFree) < maxFreeTransfers {
		f.xferFree = append(f.xferFree, t)
	}
}

// TransferE moves size bytes from src to dst in simulated time and runs k
// on completion, using the calling EventProc for all queueing. The
// message pays one latency (half of it on loopback), then serializes in
// MTU-sized chunks, each holding the sender link, the backplane if any
// and the receiver link. It never runs k before returning.
func (f *Fabric) TransferE(ep *des.EventProc, src, dst *Node, size int64, k func()) {
	chunk := f.begin(src, dst, size)
	if src == dst {
		ep.Wait(f.scaled(f.cfg.Latency/2), k)
		return
	}
	var t *transferE
	if n := len(f.xferFree) - 1; n >= 0 {
		t = f.xferFree[n]
		f.xferFree[n] = nil
		f.xferFree = f.xferFree[:n]
	} else {
		t = &transferE{f: f}
		t.resumeF = t.resume
	}
	t.ep, t.s, t.d, t.remain, t.chunk, t.k = ep, src, dst, size, chunk, k
	t.phase = xfChunk
	ep.Wait(f.scaled(f.cfg.Latency), t.resumeF)
}

// RTT returns the zero-payload round-trip time estimate (2x latency).
func (f *Fabric) RTT() des.Time { return 2 * f.cfg.Latency }

// BytesMoved reports total payload bytes transferred so far.
func (f *Fabric) BytesMoved() int64 { return f.bytesMoved }

// Messages reports total transfers so far.
func (f *Fabric) Messages() uint64 { return f.messages }

// LinkUtilization returns the send-link utilization of node name in [0,1].
func (f *Fabric) LinkUtilization(name string) float64 {
	n, ok := f.nodes[name]
	if !ok {
		return 0
	}
	return n.out.Utilization()
}
