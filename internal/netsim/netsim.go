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

// GBps is one gigabyte per second.
const GBps Bandwidth = 1e9

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
	eng   *des.Engine
	cfg   Config
	nodes map[string]*Node
	// retired holds the nodes a Reset dropped, by name, for AddNode to
	// revive.
	retired   map[string]*Node
	backplane des.Resource // in use when cfg.BackplaneBandwidth > 0
	// inName and outName name a node's links <fabric>.<node>.in and .out.
	inName, outName des.NameAffix
	// degradation >= 1 multiplies latency and serialization times
	// (fault injection: failing links, congested uplinks); 0 is nominal.
	degradation float64

	// xfers recycles TransferE state machines (see transferE).
	xfers des.FreeList[transferE, *transferE]
}

// Node is one endpoint of a fabric, returned by AddNode: a NIC with an
// injection (send) and an ejection (receive) link. Transfers name their
// endpoints by handle, so moving a message costs no name lookup.
type Node struct {
	fab  *Fabric
	name string
	in   des.Resource // ejection (receive) link
	out  des.Resource // injection (send) link
}

// Name returns the node name given to AddNode.
func (n *Node) Name() string { return n.name }

// NewFabric creates a fabric on engine e with config cfg.
func NewFabric(e *des.Engine, cfg Config) *Fabric {
	f := &Fabric{eng: e, cfg: cfg, nodes: make(map[string]*Node), retired: make(map[string]*Node)}
	f.xfers.Init(maxFreeTransfers)
	f.inName = des.NameAffix{Prefix: cfg.Name + ".", Suffix: ".in"}
	f.outName = des.NameAffix{Prefix: f.inName.Prefix, Suffix: ".out"}
	if cfg.BackplaneBandwidth > 0 {
		ch := cfg.BackplaneChannels
		if ch < 1 {
			ch = 1
		}
		f.backplane.Init(e, cfg.Name+".backplane", ch)
	}
	f.Reset(nil)
	return f
}

// Reset returns f to its state just after NewFabric followed by AddNode
// for each node of keep, which must be f's own: every other node is
// retired, the nodes' links and the backplane are idle with zeroed
// accounting (des.Resource.Reset), and the degradation is nominal. The
// kept handles stay valid, and the free transfer state stays warm. A
// retired node is not f's until AddNode of its name revives it, so a
// fabric reset between jobs of one shape allocates no node. NewFabric
// calls Reset too, so a fresh and a reset fabric are initialized by the
// same code. Reset f together with its engine; it panics with
// des.ErrLiveReset while a link is held.
func (f *Fabric) Reset(keep []*Node) {
	for name, n := range f.nodes {
		n.in.Reset()
		n.out.Reset()
		f.retired[name] = n
	}
	clear(f.nodes)
	for _, n := range keep {
		if n.fab != f {
			panic(fmt.Sprintf("netsim: %s: reset keeps node %s of another fabric", f.cfg.Name, n.name))
		}
		delete(f.retired, n.name)
		f.nodes[n.name] = n
	}
	f.backplane.Reset()
	f.degradation = 0
}

// AddNode registers an endpoint and returns its handle; it panics on
// duplicates. A node of that name that a Reset retired comes back, with
// idle links, as a new one would be.
func (f *Fabric) AddNode(name string) *Node {
	if _, dup := f.nodes[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %q", name))
	}
	n, ok := f.retired[name]
	if ok {
		delete(f.retired, name)
	} else {
		n = &Node{fab: f, name: name}
		n.in.InitAffixed(f.eng, &f.inName, name, 1)
		n.out.InitAffixed(f.eng, &f.outName, name, 1)
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

// scaled applies the degradation factor to a duration.
func (f *Fabric) scaled(t des.Time) des.Time {
	if f.degradation > 1 {
		return des.Time(float64(t) * f.degradation)
	}
	return t
}

// begin validates a transfer; it reports the chunk size the message
// serializes in.
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
	chunk = f.cfg.MTU
	if chunk <= 0 || chunk > size {
		chunk = size
	}
	return chunk
}

// maxFreeTransfers caps a fabric's TransferE free list. A burst of
// concurrent transfers (every rank of a shard queued at one NIC) frees far
// more state than steady state reuses; only this many are kept (see
// des.FreeList).
const maxFreeTransfers = 256

// transferE is the state machine behind TransferE. One chunk cycle is:
// acquire the sender link, (acquire the backplane), acquire the receiver
// link, hold for the serialization time, release in reverse order, next
// chunk. The struct is its own continuation: every blocking point re-enters
// Step. It returns to its fabric's free list when its last step fires, so
// a steady-state transfer allocates nothing.
type transferE struct {
	f      *Fabric
	ep     *des.EventProc
	s, d   *Node
	remain int64
	chunk  int64
	n      int64    // current chunk size
	t      des.Time // current chunk serialization time
	phase  uint8
	des.Pooled
	k des.Step
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

func (t *transferE) Step() {
	if t.Recycled() {
		panic("netsim: transfer resumed after it was recycled")
	}
	f := t.f
	for {
		switch t.phase {
		case xfChunk:
			if t.remain <= 0 {
				k := t.k
				t.ep, t.s, t.d, t.k = nil, nil, nil, nil
				f.xfers.Put(t)
				k.Step()
				return
			}
			t.n = min(t.chunk, t.remain)
			t.phase = xfOut
			t.s.out.AcquireE(t.ep, t)
			return
		case xfOut:
			t.t = f.scaled(transferTime(t.n, f.cfg.LinkBandwidth))
			if f.cfg.BackplaneBandwidth > 0 {
				t.phase = xfBackplane
				f.backplane.AcquireE(t.ep, t)
				return
			}
			t.phase = xfIn
			t.d.in.AcquireE(t.ep, t)
			return
		case xfBackplane:
			if bt := f.scaled(transferTime(t.n, f.cfg.BackplaneBandwidth)); bt > t.t {
				t.t = bt
			}
			t.phase = xfIn
			t.d.in.AcquireE(t.ep, t)
			return
		case xfIn:
			t.phase = xfSent
			t.ep.Wait(t.t, t)
			return
		case xfSent:
			t.d.in.Release()
			if f.cfg.BackplaneBandwidth > 0 {
				f.backplane.Release()
			}
			t.s.out.Release()
			t.remain -= t.n
			t.phase = xfChunk
		}
	}
}

// TransferE moves size bytes from src to dst in simulated time and runs k
// on completion, using the calling EventProc for all queueing. The
// message pays one latency (half of it on loopback), then serializes in
// MTU-sized chunks, each holding the sender link, the backplane if any
// and the receiver link. It never runs k before returning.
func (f *Fabric) TransferE(ep *des.EventProc, src, dst *Node, size int64, k des.Step) {
	chunk := f.begin(src, dst, size)
	if src == dst {
		ep.Wait(f.scaled(f.cfg.Latency/2), k)
		return
	}
	t := f.xfers.Get()
	t.f, t.ep, t.s, t.d, t.remain, t.chunk, t.k = f, ep, src, dst, size, chunk, k
	t.phase = xfChunk
	ep.Wait(f.scaled(f.cfg.Latency), t)
}
