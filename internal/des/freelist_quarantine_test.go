//go:build quarantine

package des

import "testing"

// TestQuarantineFreeListPoisons: under the quarantine tag a FreeList
// poisons every item it is handed instead of keeping it, whether the item
// was allocated alone or carved from a chunk, so a later Get never returns
// a released item.
func TestQuarantineFreeListPoisons(t *testing.T) {
	var l FreeList[pooledItem, *pooledItem]
	l.Init(2)
	xs := []*pooledItem{l.Get(), l.Get(), l.Get()}
	if !xs[2].chunked {
		t.Fatal("the item past the cap was not carved from a chunk")
	}
	unused := l.Len() // the rest of the chunk
	for _, x := range xs {
		if x.Recycled() {
			t.Fatal("an item handed out reads as recycled")
		}
		l.Put(x)
		if !x.Recycled() {
			t.Fatal("a released item was not poisoned")
		}
	}
	if l.Len() != unused {
		t.Fatalf("the list keeps %d released items, want 0", l.Len()-unused)
	}
	for i := 0; i < 4; i++ {
		if y := l.Get(); y.Recycled() {
			t.Fatal("Get returned a released item")
		}
	}
}

// TestQuarantineDoublePutPanics: under the quarantine tag releasing an
// item twice panics, so an owner that would hand one item to two users
// fails at the second release.
func TestQuarantineDoublePutPanics(t *testing.T) {
	var l FreeList[pooledItem, *pooledItem]
	l.Init(2)
	x := l.Get()
	l.Put(x)
	defer func() {
		if recover() == nil {
			t.Fatal("a second Put of one item did not panic")
		}
	}()
	l.Put(x)
}
