package netsim

import (
	"testing"
	"testing/quick"

	"pioeval/internal/des"
)

func twoNodeFabric(cfg Config, seed int64) (*des.Engine, *Fabric) {
	e := des.NewEngine(seed)
	f := NewFabric(e, cfg)
	f.AddNode("a")
	f.AddNode("b")
	return e, f
}

// nop is the completion of a transfer a proc awaits.
var nop = des.StepFunc(func() {})

// transfer moves size bytes from src to dst on f, blocking p for the
// whole transfer: a goroutine proc awaits TransferE on its hosted
// EventProc, as the pfs client does.
func transfer(p *des.Proc, f *Fabric, src, dst *Node, size int64) {
	p.Await(func(ep *des.EventProc) { f.TransferE(ep, src, dst, size, nop) })
}

// node looks up a node handle by name; nil when there is none.
func node(f *Fabric, name string) *Node {
	n, _ := f.Node(name)
	return n
}

func TestTransferTimeBasic(t *testing.T) {
	cfg := Config{Name: "t", Latency: 10 * des.Microsecond, LinkBandwidth: 1 * GBps}
	e, f := twoNodeFabric(cfg, 1)
	var done des.Time
	e.Spawn("x", func(p *des.Proc) {
		transfer(p, f, node(f, "a"), node(f, "b"), 1_000_000) // 1 MB at 1 GB/s = 1 ms
		done = p.Now()
	})
	e.Run(des.MaxTime)
	want := 10*des.Microsecond + 1*des.Millisecond
	if done != want {
		t.Fatalf("transfer completed at %v, want %v", done, want)
	}
}

func TestTransferContentionOnSenderLink(t *testing.T) {
	cfg := Config{Name: "t", Latency: 0, LinkBandwidth: 1 * GBps}
	e := des.NewEngine(1)
	f := NewFabric(e, cfg)
	f.AddNode("a")
	f.AddNode("b")
	f.AddNode("c")
	var ends []des.Time
	for _, dst := range []string{"b", "c"} {
		dst := dst
		e.Spawn("x", func(p *des.Proc) {
			transfer(p, f, node(f, "a"), node(f, dst), 1_000_000)
			ends = append(ends, p.Now())
		})
	}
	e.Run(des.MaxTime)
	// Both share a's injection link: second finishes at 2ms.
	if ends[0] != 1*des.Millisecond || ends[1] != 2*des.Millisecond {
		t.Fatalf("ends = %v, want [1ms 2ms]", ends)
	}
}

func TestBackplaneCap(t *testing.T) {
	cfg := Config{
		Name: "t", Latency: 0,
		LinkBandwidth:      10 * GBps,
		BackplaneBandwidth: 1 * GBps,
	}
	e := des.NewEngine(1)
	f := NewFabric(e, cfg)
	f.AddNode("a")
	f.AddNode("b")
	f.AddNode("c")
	f.AddNode("d")
	var ends []des.Time
	pairs := [][2]string{{"a", "b"}, {"c", "d"}}
	for _, pr := range pairs {
		pr := pr
		e.Spawn("x", func(p *des.Proc) {
			transfer(p, f, node(f, pr[0]), node(f, pr[1]), 1_000_000)
			ends = append(ends, p.Now())
		})
	}
	e.Run(des.MaxTime)
	// Disjoint links but shared backplane at 1GB/s: serialized, 1ms each.
	if ends[1] != 2*des.Millisecond {
		t.Fatalf("second transfer ended at %v, want 2ms (backplane serialization)", ends[1])
	}
}

func TestLoopback(t *testing.T) {
	cfg := Config{Name: "t", Latency: 10 * des.Microsecond, LinkBandwidth: 1 * GBps}
	e, f := twoNodeFabric(cfg, 1)
	var done des.Time
	e.Spawn("x", func(p *des.Proc) {
		transfer(p, f, node(f, "a"), node(f, "a"), 1<<30)
		done = p.Now()
	})
	e.Run(des.MaxTime)
	if done != 5*des.Microsecond {
		t.Fatalf("loopback took %v, want half latency", done)
	}
}

// TestEmptyMessagePaysLatency: a zero-byte message pays the latency and
// holds no link, so a message sent behind it on the same link is not
// delayed.
func TestEmptyMessagePaysLatency(t *testing.T) {
	cfg := Config{Name: "t", Latency: 10 * des.Microsecond, LinkBandwidth: 1 * GBps}
	e, f := twoNodeFabric(cfg, 1)
	var empty, full des.Time
	e.Spawn("empty", func(p *des.Proc) {
		transfer(p, f, node(f, "a"), node(f, "b"), 0)
		empty = p.Now()
	})
	e.Spawn("full", func(p *des.Proc) {
		transfer(p, f, node(f, "a"), node(f, "b"), 1_000_000)
		full = p.Now()
	})
	e.Run(des.MaxTime)
	if empty != 10*des.Microsecond {
		t.Errorf("empty message took %v, want the 10µs latency", empty)
	}
	if want := 10*des.Microsecond + des.Millisecond; full != want {
		t.Errorf("message behind an empty one took %v, want %v", full, want)
	}
}

func TestPresets(t *testing.T) {
	ib, eth := InfiniBandLike(), EthernetLike()
	if ib.LinkBandwidth <= eth.LinkBandwidth {
		t.Error("IB should be faster than Ethernet")
	}
	if ib.Latency >= eth.Latency {
		t.Error("IB should have lower latency than Ethernet")
	}
}

func TestUnknownNodePanics(t *testing.T) {
	e, f := twoNodeFabric(Config{Name: "t", LinkBandwidth: GBps}, 1)
	e.Spawn("x", func(p *des.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("transfer to unknown node should panic")
			}
		}()
		transfer(p, f, node(f, "a"), node(f, "nope"), 10)
	})
	e.Run(des.MaxTime)
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddNode should panic")
		}
	}()
	e := des.NewEngine(1)
	f := NewFabric(e, Config{Name: "t"})
	f.AddNode("a")
	f.AddNode("a")
}

// Property: transfer duration is monotonically non-decreasing in size.
func TestPropTransferMonotonic(t *testing.T) {
	f := func(s1, s2 uint32) bool {
		a, b := int64(s1%(1<<24)), int64(s2%(1<<24))
		if a > b {
			a, b = b, a
		}
		dur := func(size int64) des.Time {
			e, fb := twoNodeFabric(Config{Name: "t", Latency: des.Microsecond, LinkBandwidth: GBps}, 1)
			var d des.Time
			e.Spawn("x", func(p *des.Proc) {
				transfer(p, fb, node(fb, "a"), node(fb, "b"), size)
				d = p.Now()
			})
			e.Run(des.MaxTime)
			return d
		}
		return dur(a) <= dur(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
