package pfs

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"pioeval/internal/des"
)

// formOpKind is one step of a generated client program.
type formOpKind uint8

const (
	fopWrite formOpKind = iota
	fopRead
	fopFsync
	fopClose
	fopOpen
)

type formOp struct {
	kind      formOpKind
	off, size int64
}

// genFormProgram draws n ops over one 16 MiB file: mostly writes and
// reads, half of 4 KiB..4 MiB at arbitrary offsets and half of 64 KiB..
// 2 MiB at 64 KiB-aligned offsets, with fsyncs, closes and
// re-opens between them. After a close, each read or write drawn is
// replaced by a re-open half of the time; the rest fail with
// ErrClosedHandle.
func genFormProgram(rng *rand.Rand, n int) []formOp {
	ops := make([]formOp, n)
	closed := false
	for i := range ops {
		op := formOp{off: rng.Int63n(16 << 20), size: 4<<10 + rng.Int63n(4<<20)}
		if rng.Intn(2) == 0 {
			// Aligned power-of-two requests land exactly on stripe
			// and readahead boundaries.
			op.off &^= 64<<10 - 1
			op.size = 64 << 10 << rng.Intn(6)
		}
		switch r := rng.Intn(20); {
		case r < 9:
			op.kind = fopWrite
		case r < 15:
			op.kind = fopRead
		case r < 17:
			op.kind = fopFsync
		case r < 19:
			op.kind = fopClose
		default:
			op.kind = fopOpen
		}
		if closed && op.kind <= fopRead && rng.Intn(2) == 0 {
			op.kind = fopOpen
		}
		switch op.kind {
		case fopClose:
			closed = true
		case fopOpen:
			closed = false
		}
		ops[i] = op
	}
	return ops
}

// formScenario is one fault setting the differential runs under.
type formScenario struct {
	name   string
	policy ResiliencePolicy
	inject func(e *des.Engine, fs *FS)
	// exercised reports whether the run actually hit the fault path.
	exercised func(st ClientStats) bool
}

// formResult is everything a run of one form is compared on.
type formResult struct {
	log     []string // per-op completion time and error, in completion order
	clients []ClientStats
	osts    []OSTStats
}

// runFormProgram runs progs, one client each, on a fresh cluster: through
// Write/Read/Fsync/Close on goroutine Procs, or through the E forms on
// EventProcs.
func runFormProgram(t *testing.T, sc formScenario, ra int64, progs [][]formOp, event bool) formResult {
	t.Helper()
	cfg := fastConfig()
	cfg.NumIONodes = 1
	cfg.ClientReadahead = ra
	cfg.Resilience = sc.policy
	e := des.NewEngine(11)
	fs := New(e, cfg)
	sc.inject(e, fs)
	var res formResult
	clients := make([]*Client, len(progs))
	for ci, prog := range progs {
		c := fs.NewClient("c" + strconv.Itoa(ci))
		clients[ci] = c
		path := "/f" + strconv.Itoa(ci)
		record := func(i int, err error) {
			msg := "<nil>"
			if err != nil {
				msg = err.Error()
			}
			res.log = append(res.log, fmt.Sprintf("c%d op%d t=%d err=%s", ci, i, e.Now(), msg))
		}
		if !event {
			e.Spawn(path, func(p *des.Proc) {
				h, err := c.Create(p, path, 0, 0)
				record(-1, err)
				for i, op := range prog {
					switch op.kind {
					case fopWrite:
						err = h.Write(p, op.off, op.size)
					case fopRead:
						err = h.Read(p, op.off, op.size)
					case fopFsync:
						err = h.Fsync(p)
					case fopClose:
						err = h.Close(p)
					case fopOpen:
						var nh *Handle
						if nh, err = c.Open(p, path); err == nil {
							h = nh
						}
					}
					record(i, err)
				}
			})
			continue
		}
		e.SpawnEvent(path, func(ep *des.EventProc) {
			// A re-open opens into a new handle, nh, and leaves the old
			// one as it is, open or not, as the blocking Open does.
			h, nh := new(Handle), new(Handle)
			i := -1
			var step, done, opened des.StepFunc
			done = func() {
				record(i, h.Err())
				i++
				step()
			}
			opened = func() {
				err := nh.Err()
				if err == nil {
					h, nh = nh, new(Handle)
				}
				record(i, err)
				i++
				step()
			}
			step = func() {
				if i == len(prog) {
					return
				}
				if i < 0 {
					c.CreateE(ep, h, path, 0, 0, done)
					return
				}
				op := prog[i]
				switch op.kind {
				case fopWrite:
					h.WriteE(ep, op.off, op.size, done)
				case fopRead:
					// The continuation form of Read, which only the
					// goroutine Read awaits.
					h.newIO(ioRead, op.off, op.size, done).run(ep)
				case fopFsync:
					h.FsyncE(ep, done)
				case fopClose:
					h.CloseE(ep, done)
				case fopOpen:
					c.OpenE(ep, nh, path, opened)
				}
			}
			step()
		})
	}
	e.Run(des.MaxTime)
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("%s: %d procs deadlocked", sc.name, n)
	}
	for _, c := range clients {
		res.clients = append(res.clients, c.Stats())
	}
	res.osts = fs.OSTStats()
	return res
}

// TestFormDifferentialUnderFaults runs generated programs of writes,
// reads, fsyncs, closes and re-opens through both execution forms — the
// blocking methods on goroutine Procs and the E methods on EventProcs —
// under OST crashes with and without recovery, transient errors, an MDS
// outage and degraded reads, with readahead on and off. The forms must agree on every op's completion time and error text
// and on every client and OST counter.
func TestFormDifferentialUnderFaults(t *testing.T) {
	crashAt := func(at des.Time, ost int) func(*des.Engine, *FS) {
		return func(e *des.Engine, fs *FS) { e.After(at, func() { fs.CrashOST(ost) }) }
	}
	degraded := DefaultResilience()
	degraded.MaxRetries = 1
	scenarios := []formScenario{
		{
			name:   "crash-recover",
			policy: DefaultResilience(),
			inject: func(e *des.Engine, fs *FS) {
				crashAt(10*des.Millisecond, 1)(e, fs)
				e.After(120*des.Millisecond, func() { fs.RecoverOST(1) })
			},
			exercised: func(st ClientStats) bool { return st.TimedOutRPCs > 0 && st.Retries > 0 },
		},
		{
			name:      "fail-fast-crash",
			inject:    crashAt(10*des.Millisecond, 2),
			exercised: func(st ClientStats) bool { return st.FailedRPCs > 0 },
		},
		{
			name:   "transient",
			policy: DefaultResilience(),
			inject: func(_ *des.Engine, fs *FS) {
				if err := fs.SetTransientErrorRate(0.2); err != nil {
					panic(err)
				}
			},
			exercised: func(st ClientStats) bool { return st.Retries > 0 },
		},
		{
			name:   "mds-window",
			policy: DefaultResilience(),
			inject: func(e *des.Engine, fs *FS) {
				e.After(10*des.Millisecond, func() { fs.SetMDSAvailable(false) })
				e.After(60*des.Millisecond, func() { fs.SetMDSAvailable(true) })
			},
			exercised: func(st ClientStats) bool { return st.TimedOutRPCs > 0 && st.Retries > 0 },
		},
		{
			name:      "degraded-reads",
			policy:    degraded,
			inject:    crashAt(10*des.Millisecond, 3),
			exercised: func(st ClientStats) bool { return st.DegradedReads > 0 },
		},
	}
	rng := rand.New(rand.NewSource(5))
	for _, sc := range scenarios {
		for _, ra := range []int64{0, 1 << 20} {
			progs := make([][]formOp, 3)
			for i := range progs {
				progs[i] = genFormProgram(rng, 24)
			}
			name := fmt.Sprintf("%s/ra=%d", sc.name, ra)
			g := runFormProgram(t, sc, ra, progs, false)
			c := runFormProgram(t, sc, ra, progs, true)
			if !reflect.DeepEqual(g.log, c.log) {
				for i := 0; i < len(g.log) && i < len(c.log); i++ {
					if g.log[i] != c.log[i] {
						t.Errorf("%s: first divergence at completion %d:\n goroutine    %s\n continuation %s", name, i, g.log[i], c.log[i])
						break
					}
				}
				t.Errorf("%s: %d goroutine-form completions, %d continuation-form", name, len(g.log), len(c.log))
			}
			if !reflect.DeepEqual(g.clients, c.clients) {
				t.Errorf("%s: client stats differ:\n goroutine    %+v\n continuation %+v", name, g.clients, c.clients)
			}
			if !reflect.DeepEqual(g.osts, c.osts) {
				t.Errorf("%s: OST stats differ:\n goroutine    %+v\n continuation %+v", name, g.osts, c.osts)
			}
			var total ClientStats
			for _, st := range g.clients {
				total.TimedOutRPCs += st.TimedOutRPCs
				total.Retries += st.Retries
				total.FailedRPCs += st.FailedRPCs
				total.DegradedReads += st.DegradedReads
			}
			if !sc.exercised(total) {
				t.Errorf("%s: the fault path was not exercised: %+v", name, total)
			}
		}
	}
}
