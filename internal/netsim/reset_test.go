package netsim

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"pioeval/internal/des"
)

// fabricRun sends concurrent transfers among the nodes named, so the
// links and the backplane contend, and returns the completion times and
// the fabric's view.
func fabricRun(e *des.Engine, f *Fabric, names ...string) string {
	var out string
	for i := range names {
		src, dst := node(f, names[i]), node(f, names[(i+1)%len(names)])
		e.Spawn("x", func(p *des.Proc) {
			transfer(p, f, src, dst, 3<<20)
			out += fmt.Sprintf("%d ", p.Now())
		})
	}
	e.Run(des.MaxTime)
	return out + fabricView(f, names...)
}

// fabricView is the state a run leaves in a fabric: its degradation, and
// its node set with their send links' use.
func fabricView(f *Fabric, names ...string) string {
	out := fmt.Sprintf("degr=%g nodes=%v", f.degradation, nodeNames(f))
	for _, n := range names {
		out += fmt.Sprintf(" %s:%g", n, node(f, n).out.Utilization())
	}
	return out
}

func nodeNames(f *Fabric) []string {
	var out []string
	for name := range f.nodes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestFabricResetMatchesFresh: a degraded fabric that carried traffic,
// reset keeping its server nodes, has only those nodes, the same handles
// for them, idle links and nominal speed, and carries the next run
// exactly as a fresh fabric with the same servers does.
func TestFabricResetMatchesFresh(t *testing.T) {
	cfg := Config{Name: "t", Latency: des.Microsecond, LinkBandwidth: GBps, BackplaneBandwidth: 2 * GBps}
	used := des.NewEngine(1)
	f := NewFabric(used, cfg)
	srv := f.AddNode("srv")
	f.AddNode("c0")
	f.AddNode("c1")
	if err := f.SetDegradation(2); err != nil {
		t.Fatal(err)
	}
	fabricRun(used, f, "srv", "c0", "c1")
	used.Reset(1)
	f.Reset([]*Node{srv})

	fresh := des.NewEngine(1)
	ff := NewFabric(fresh, cfg)
	ff.AddNode("srv")
	if got, want := fabricView(f, "srv"), fabricView(ff, "srv"); got != want {
		t.Fatalf("reset fabric differs from a fresh one:\n got %s\nwant %s", got, want)
	}
	if node(f, "srv") != srv {
		t.Fatal("reset replaced a kept node's handle")
	}
	for _, fab := range []*Fabric{f, ff} {
		fab.AddNode("c1") // a dropped name is free again
		fab.AddNode("c2")
	}
	if got, want := fabricRun(used, f, "srv", "c1", "c2"), fabricRun(fresh, ff, "srv", "c1", "c2"); got != want {
		t.Fatalf("reset fabric carries traffic differently:\n got %s\nwant %s", got, want)
	}
}

// TestFabricResetBusyLinkPanics: a fabric whose kept node holds a link
// does not reset, and a fabric keeps no node of another fabric.
func TestFabricResetBusyLinkPanics(t *testing.T) {
	e, f := twoNodeFabric(Config{Name: "t", LinkBandwidth: GBps}, 1)
	a := node(f, "a")
	e.SpawnEvent("holder", func(ep *des.EventProc) { a.out.AcquireE(ep, des.NoStep{}) })
	e.Run(des.MaxTime)
	func() {
		defer func() {
			if err, _ := recover().(error); !errors.Is(err, des.ErrLiveReset) {
				t.Errorf("busy link: panic %v, want des.ErrLiveReset", err)
			}
		}()
		f.Reset([]*Node{a})
	}()
	other := NewFabric(e, Config{Name: "o"})
	defer func() {
		if recover() == nil {
			t.Error("reset keeping another fabric's node did not panic")
		}
	}()
	f.Reset([]*Node{other.AddNode("x")})
}
