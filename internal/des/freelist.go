package des

import "unsafe"

// chunkBytes bounds the chunks a FreeList carves its items from past its
// cap: 32 KiB, the largest small-object size class.
const chunkBytes = 32 << 10

// Pooled is the header of a struct a FreeList recycles, embedded by value.
// It records whether the list carved the struct from a chunk and, under
// the quarantine tag, whether the struct has been released. A struct that
// clears itself for reuse must keep its header.
type Pooled struct {
	chunked  bool
	poisoned bool
}

func (p *Pooled) pooled() *Pooled { return p }

// Recycled reports whether the struct has been released to its free list
// under the quarantine tag (see Quarantine), which poisons a released
// struct instead of reusing it. A state machine checks it on entry to a
// step and panics, so a step that touches the machine after its last step
// fails loudly. Without the tag it is constant false.
func (p *Pooled) Recycled() bool { return Quarantine && p.poisoned }

// FreeList recycles the state machines of one owner (a fabric's
// transfers, a device's accesses, a file system's calls), so that a
// steady-state operation allocates nothing. It is owned by one object and
// never shared between shards. T embeds
// Pooled; P is *T.
//
// Its owner's first max items are allocated one by one, so a small owner
// allocates no more than it uses. Past that, a burst of concurrent
// operations (every rank of a shard in the same phase) is served from
// chunks of up to 32 KiB and up to max items, far fewer objects than
// items: a Get that finds the list empty carves a chunk, returns its first
// item and keeps the others on the list. A released item is reused by the
// next Get, last in first out. The list holds at most max items: a chunk
// item released to a full list is dropped, and an item allocated one by
// one is always kept, evicting a chunk item if the list is full. So once
// every item handed out has been released, the list holds exactly the
// items allocated one by one, no chunk is reachable from the owner, and a
// burst does not raise the heap the owner retains.
type FreeList[T any, P interface {
	*T
	pooled() *Pooled
}] struct {
	items   []P   // released items and unused chunk items; Get pops the last
	max     int32 // cap on items, and the number allocated one by one
	singles int32 // items allocated one by one so far
}

// Init sets up an empty list that keeps at most max items.
func (l *FreeList[T, P]) Init(max int) { *l = FreeList[T, P]{max: int32(max)} }

// Get returns a released item, or a new zero item.
func (l *FreeList[T, P]) Get() P {
	if n := len(l.items) - 1; n >= 0 {
		x := l.items[n]
		l.items[n] = nil
		l.items = l.items[:n]
		return x
	}
	if l.singles < l.max {
		l.singles++
		return P(new(T))
	}
	// The list is empty, so it has room for all of the chunk but the item
	// handed out; the list's array, once sized, is reused.
	var zero T
	chunk := make([]T, max(1, min(int(l.max), chunkBytes/int(unsafe.Sizeof(zero)))))
	if cap(l.items) < len(chunk)-1 {
		l.items = make([]P, 0, l.max)
	}
	for i := len(chunk) - 1; i >= 0; i-- {
		P(&chunk[i]).pooled().chunked = true
		if i > 0 {
			l.items = append(l.items, &chunk[i])
		}
	}
	return &chunk[0]
}

// Put releases x, which its caller must no longer touch; under the
// quarantine tag it poisons x instead (see Recycled), and panics if x
// was released already.
func (l *FreeList[T, P]) Put(x P) {
	h := x.pooled()
	if Quarantine {
		if h.poisoned {
			panic("des: FreeList.Put of an item released already")
		}
		h.poisoned = true
		return
	}
	if len(l.items) < int(l.max) {
		l.items = append(l.items, x)
		return
	}
	if h.chunked {
		return
	}
	// The list is full and x is one of at most max items allocated one
	// by one, so the list holds a chunk item: evict the newest.
	for i := len(l.items) - 1; i >= 0; i-- {
		if l.items[i].pooled().chunked {
			copy(l.items[i:], l.items[i+1:])
			l.items[len(l.items)-1] = x
			return
		}
	}
}

// Len reports the number of items the list holds.
func (l *FreeList[T, P]) Len() int { return len(l.items) }
