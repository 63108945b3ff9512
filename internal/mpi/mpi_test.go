package mpi

import (
	"testing"
	"testing/quick"

	"pioeval/internal/des"
)

// runWorld spawns fn on a fresh world and runs to completion, failing on
// simulated deadlock.
func runWorld(t *testing.T, size int, opts Options, fn func(r *Rank)) (*World, des.Time) {
	t.Helper()
	e := des.NewEngine(1)
	w := NewWorld(e, size, opts)
	w.Spawn(fn)
	end := e.Run(des.MaxTime)
	if e.LiveProcs() != 0 {
		t.Fatalf("MPI deadlock: %d live ranks", e.LiveProcs())
	}
	return w, end
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for n, want := range cases {
		if got := ceilLog2(n); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSendRecv(t *testing.T) {
	opts := Options{Alpha: 1000, BetaBps: 1e9}
	var recvAt des.Time
	var msg Message
	runWorld(t, 2, opts, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, 1000) // 1us alpha + 1us transfer
		} else {
			msg = r.Recv(0, 7)
			recvAt = r.Now()
		}
	})
	if msg.Src != 0 || msg.Tag != 7 || msg.Size != 1000 {
		t.Fatalf("msg = %+v", msg)
	}
	if recvAt != 2000 {
		t.Fatalf("recv at %v, want 2000ns", recvAt)
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	var recvAt des.Time
	runWorld(t, 2, Options{Alpha: 10}, func(r *Rank) {
		if r.ID() == 0 {
			r.Compute(5000)
			r.Send(1, 0, 0)
		} else {
			r.Recv(0, 0)
			recvAt = r.Now()
		}
	})
	if recvAt != 5010 {
		t.Fatalf("recv at %v, want 5010", recvAt)
	}
}

func TestMessageTagIsolation(t *testing.T) {
	// Messages with different tags do not cross.
	var first Message
	runWorld(t, 2, Options{}, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, 111)
			r.Send(1, 2, 222)
		} else {
			first = r.Recv(0, 2) // explicitly take tag 2 first
			_ = r.Recv(0, 1)
		}
	})
	if first.Size != 222 {
		t.Fatalf("tag-2 recv got size %d", first.Size)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	var after []des.Time
	runWorld(t, 4, Options{Alpha: 100}, func(r *Rank) {
		r.Compute(des.Time(r.ID()) * 1000) // ranks arrive staggered
		r.Barrier()
		after = append(after, r.Now())
	})
	if len(after) != 4 {
		t.Fatalf("%d ranks passed barrier", len(after))
	}
	for _, ts := range after {
		if ts < 3000 {
			t.Fatalf("rank released at %v before last arrival (3000)", ts)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	counts := make([]int, 3)
	runWorld(t, 3, Options{}, func(r *Rank) {
		for i := 0; i < 5; i++ {
			r.Compute(des.Time(r.ID()+1) * 100)
			r.Barrier()
			counts[r.ID()]++
		}
	})
	for i, c := range counts {
		if c != 5 {
			t.Fatalf("rank %d passed %d barriers, want 5", i, c)
		}
	}
}

func TestCollectivesScaleWithLogP(t *testing.T) {
	dur := func(p int) des.Time {
		_, end := runWorld(t, p, Options{Alpha: 1000, BetaBps: 1e9}, func(r *Rank) {
			r.Barrier()
		})
		return end
	}
	d2, d16 := dur(2), dur(16)
	if d16 <= d2 {
		t.Fatalf("16-rank barrier (%v) should cost more than 2-rank (%v)", d16, d2)
	}
	// log2(16)/log2(2) = 4: expect roughly 4x, certainly < 10x.
	if ratio := float64(d16) / float64(d2); ratio > 10 {
		t.Errorf("barrier scaling ratio = %.1f, want ~4", ratio)
	}
}

func TestAllgatherScalesWithP(t *testing.T) {
	dur := func(p int, size int64) des.Time {
		_, end := runWorld(t, p, Options{Alpha: 1000, BetaBps: 1e9}, func(r *Rank) {
			r.Allgather(size)
		})
		return end
	}
	if dur(8, 1<<10) <= dur(2, 1<<10) {
		t.Error("allgather should scale with P")
	}
	if dur(8, 1<<20) <= dur(8, 1<<10) {
		t.Error("allgather should cost more at larger payloads")
	}
}

func TestSendrecvNoDeadlock(t *testing.T) {
	// Ring shift: every rank sends to its next neighbour, then receives
	// from its previous one; eager sends cannot deadlock.
	runWorld(t, 8, Options{Alpha: 10}, func(r *Rank) {
		next := (r.ID() + 1) % r.Size()
		prev := (r.ID() + r.Size() - 1) % r.Size()
		r.Send(next, 0, 64)
		if m := r.Recv(prev, 0); m.Src != prev {
			t.Errorf("rank %d got msg from %d, want %d", r.ID(), m.Src, prev)
		}
	})
}

func TestWorldStats(t *testing.T) {
	w, _ := runWorld(t, 2, Options{}, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, 100)
			r.Send(1, 0, 200)
		} else {
			r.Recv(0, 0)
			r.Recv(0, 0)
		}
	})
	if w.BytesSent() != 300 {
		t.Fatalf("BytesSent = %d, want 300", w.BytesSent())
	}
}

func TestInvalidRankPanics(t *testing.T) {
	runWorld(t, 2, Options{}, func(r *Rank) {
		if r.ID() == 0 {
			defer func() {
				if recover() == nil {
					t.Error("send to invalid rank should panic")
				}
			}()
			r.Send(5, 0, 0)
		}
	})
}

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("size 0 world should panic")
		}
	}()
	NewWorld(des.NewEngine(1), 0, Options{})
}

// Property: a token passed around a ring visits every rank exactly once and
// total time equals size * per-hop cost.
func TestPropRingTokenTime(t *testing.T) {
	f := func(sz uint8, alpha uint16) bool {
		p := int(sz%6) + 2
		a := des.Time(alpha%1000) + 1
		e := des.NewEngine(1)
		w := NewWorld(e, p, Options{Alpha: a})
		visits := 0
		w.Spawn(func(r *Rank) {
			if r.ID() == 0 {
				r.Send(1%p, 0, 0)
				r.Recv(p-1, 0)
				visits++
			} else {
				r.Recv(r.ID()-1, 0)
				visits++
				r.Send((r.ID()+1)%p, 0, 0)
			}
		})
		end := e.Run(des.MaxTime)
		if e.LiveProcs() != 0 {
			return false
		}
		return visits == p && end == des.Time(p)*a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestComputeAdvancesOnlyCaller(t *testing.T) {
	var times [2]des.Time
	runWorld(t, 2, Options{}, func(r *Rank) {
		if r.ID() == 0 {
			r.Compute(5 * des.Millisecond)
		}
		times[r.ID()] = r.Now()
	})
	if times[0] != 5*des.Millisecond || times[1] != 0 {
		t.Fatalf("times = %v", times)
	}
}
