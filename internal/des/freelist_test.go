package des

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// pooledItem is a free-listed struct of a typical call's size.
type pooledItem struct {
	Pooled
	ep  *EventProc
	buf [20]int64
}

// TestFreeListBurst: a burst of ten times the cap allocates the first cap
// items one by one and the rest from chunks of up to 32 KiB, plus the
// list's own array; a released item is the next one reused; and once
// every item has been released, whatever order the releases come in, the
// list holds exactly the items allocated one by one, and the chunks are
// garbage.
func TestFreeListBurst(t *testing.T) {
	if Quarantine {
		t.Skip("the quarantine tag poisons released items instead of reusing them")
	}
	const limit, n = 256, 10 * 256
	perChunk := min(limit, chunkBytes/int(unsafe.Sizeof(pooledItem{})))
	items := make([]*pooledItem, 0, n)
	var l FreeList[pooledItem, *pooledItem]
	burst := func() {
		l.Init(limit)
		items = items[:0]
		for i := 0; i < n; i++ {
			items = append(items, l.Get())
		}
	}
	allocs := testing.AllocsPerRun(1, burst)
	if want := limit + (n-limit+perChunk-1)/perChunk + 1; allocs > float64(want) {
		t.Errorf("a burst of %d items: %v allocations, want <= %d (%d alone, the rest %d to a chunk, and the list's array)", n, allocs, want, limit, perChunk)
	}
	seen := map[*pooledItem]bool{}
	for i, x := range items {
		if seen[x] || x.chunked != (i >= limit) {
			t.Fatalf("item %d: duplicate %v, chunked %v", i, seen[x], x.chunked)
		}
		seen[x] = true
	}

	// Reuse is last in, first out.
	last := items[n-1]
	l.Put(last)
	if x := l.Get(); x != last {
		t.Fatal("the item released last was not the next one reused")
	}

	// Watch the first item of every chunk, the chunk's base address.
	var chunks, freed atomic.Int32
	for i := limit; i < n; i += perChunk {
		chunks.Add(1)
		runtime.SetFinalizer(items[i], func(*pooledItem) { freed.Add(1) })
	}
	// Release the chunk items first, so that they fill the list and every
	// item allocated alone must evict one.
	for i := n - 1; i >= 0; i-- {
		l.Put(items[i])
		items[i] = nil
	}
	if l.Len() != limit {
		t.Fatalf("after every release the list holds %d items, want %d", l.Len(), limit)
	}
	for _, x := range l.items {
		if x.chunked {
			t.Fatal("a chunk item survived on the list after every item was released")
		}
	}
	for try := 0; try < 100 && freed.Load() < chunks.Load(); try++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if freed.Load() != chunks.Load() {
		t.Errorf("%d of %d chunks collected after every item was released", freed.Load(), chunks.Load())
	}
}

// TestFreeListSmallOwner: an owner that never has more than cap items out
// allocates each item once and then reuses it.
func TestFreeListSmallOwner(t *testing.T) {
	if Quarantine {
		t.Skip("the quarantine tag poisons released items instead of reusing them")
	}
	var l FreeList[pooledItem, *pooledItem]
	l.Init(4)
	a, b := l.Get(), l.Get()
	l.Put(a)
	l.Put(b)
	allocs := testing.AllocsPerRun(100, func() {
		x, y := l.Get(), l.Get()
		l.Put(y)
		l.Put(x)
	})
	if allocs != 0 || a.chunked || b.chunked || l.Len() != 2 {
		t.Errorf("steady state: %v allocs, chunked %v %v, %d held; want 0, false false, 2", allocs, a.chunked, b.chunked, l.Len())
	}
}
