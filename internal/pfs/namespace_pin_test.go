package pfs

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pioeval/internal/des"
)

// nsProgram draws n namespace ops for client ci over a small path set —
// its own directory, a directory shared by every client, and a few
// children of each — so that the ops collide: mkdir on an existing
// directory, rmdir of a non-empty one, unlink of a missing file, readdir
// of a file.
func nsProgram(rng *rand.Rand, ci, n int) []string {
	dirs := []string{"/d" + strconv.Itoa(ci), "/shared"}
	var paths []string
	for _, d := range dirs {
		paths = append(paths, d)
		for i := 0; i < 3; i++ {
			paths = append(paths, d+"/e"+strconv.Itoa(i))
		}
	}
	ops := []string{"mkdir", "create", "stat", "readdir", "unlink", "rmdir"}
	prog := make([]string, n)
	for i := range prog {
		prog[i] = ops[rng.Intn(len(ops))] + " " + paths[rng.Intn(len(paths))]
	}
	return prog
}

// nsResult is what a namespace run is pinned on.
type nsResult struct {
	log     []string // per-op completion time, error text and result size
	clients []ClientStats
	mdsOps  map[string]uint64
}

// runNamespaceProgram runs one generated namespace program per client on
// goroutine procs, after each client has made its own directory and the
// shared one, with the MDS down for [500us, 400ms).
func runNamespaceProgram(t *testing.T, pol ResiliencePolicy, progs [][]string) nsResult {
	t.Helper()
	cfg := fastConfig()
	cfg.NumIONodes = 1
	cfg.Resilience = pol
	e := des.NewEngine(7)
	fs := New(e, cfg)
	e.After(500*des.Microsecond, func() { fs.SetMDSAvailable(false) })
	e.After(400*des.Millisecond, func() { fs.SetMDSAvailable(true) })
	var res nsResult
	clients := make([]*Client, len(progs))
	for ci, prog := range progs {
		c := fs.NewClient("c" + strconv.Itoa(ci))
		clients[ci] = c
		e.Spawn(c.Node(), func(p *des.Proc) {
			prog := append([]string{"mkdir /shared", "mkdir /d" + strconv.Itoa(ci)}, prog...)
			for i, op := range prog {
				var (
					err error
					n   int64
				)
				kind, path, _ := strings.Cut(op, " ")
				switch kind {
				case "mkdir":
					err = c.Mkdir(p, path)
				case "create":
					var h *Handle
					if h, err = c.Create(p, path, 0, 0); err == nil {
						err = h.Close(p)
					}
				case "stat":
					var fi FileInfo
					fi, err = c.Stat(p, path)
					n = fi.Size
					if fi.IsDir {
						n = -1
					}
				case "readdir":
					var names []string
					names, err = c.Readdir(p, path)
					n = int64(len(names))
				case "unlink":
					err = c.Unlink(p, path)
				case "rmdir":
					err = c.Rmdir(p, path)
				}
				msg := "<nil>"
				if err != nil {
					msg = err.Error()
				}
				res.log = append(res.log, fmt.Sprintf("c%d op%d %s t=%d n=%d err=%s", ci, i, op, p.Now(), n, msg))
			}
		})
	}
	e.Run(des.MaxTime)
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("%d procs deadlocked", n)
	}
	for _, c := range clients {
		res.clients = append(res.clients, c.Stats())
	}
	res.mdsOps = fs.MDSStats().Ops
	return res
}

// TestNamespaceOpsPinned pins generated mkdir/create/stat/readdir/unlink/
// rmdir programs on 3 clients across an MDS outage window, once with the
// default resilience policy and once with RPCTimeout 0, to constants
// recorded before the namespace ops moved onto the metadata state
// machine: the digest of every op's completion time, error text and
// result size, the resilience counters of every client, and the MDS op
// counts. The namespace ops have no second implementation to be compared
// against, so the constants are the reference.
func TestNamespaceOpsPinned(t *testing.T) {
	noTimeout := DefaultResilience()
	noTimeout.RPCTimeout = 0
	for _, tc := range []struct {
		name   string
		pol    ResiliencePolicy
		digest string
		stats  [3][4]uint64 // MetaRPCs, Retries, TimedOutRPCs, FailedRPCs
		mdsOps map[string]uint64
	}{
		{
			name: "outage", pol: DefaultResilience(), digest: "14647ec00701c928",
			stats:  [3][4]uint64{{49, 7, 8, 1}, {49, 7, 8, 1}, {48, 6, 7, 1}},
			mdsOps: map[string]uint64{"create": 15, "mkdir": 29, "readdir": 18, "rmdir": 22, "stat": 24, "unlink": 15},
		},
		{
			name: "timeout0", pol: noTimeout, digest: "94b55504b417331e",
			stats:  [3][4]uint64{{53, 11, 12, 1}, {53, 11, 12, 1}, {53, 11, 12, 1}},
			mdsOps: map[string]uint64{"create": 15, "mkdir": 29, "readdir": 18, "rmdir": 22, "stat": 24, "unlink": 15},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			progs := make([][]string, 3)
			for ci := range progs {
				progs[ci] = nsProgram(rng, ci, 40)
			}
			res := runNamespaceProgram(t, tc.pol, progs)
			h := sha256.New()
			for _, l := range res.log {
				fmt.Fprintln(h, l)
			}
			digest := fmt.Sprintf("%x", h.Sum(nil))[:16]
			var stats [3][4]uint64
			for i, st := range res.clients {
				stats[i] = [4]uint64{st.MetaRPCs, st.Retries, st.TimedOutRPCs, st.FailedRPCs}
			}
			if digest != tc.digest {
				t.Errorf("op log digest %s, want %s; log:\n%s", digest, tc.digest, strings.Join(res.log, "\n"))
			}
			if stats != tc.stats {
				t.Errorf("client stats %v, want %v", stats, tc.stats)
			}
			if !reflect.DeepEqual(res.mdsOps, tc.mdsOps) {
				t.Errorf("MDS ops %#v, want %#v", res.mdsOps, tc.mdsOps)
			}
		})
	}
}
