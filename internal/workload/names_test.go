package workload

import (
	"fmt"
	"testing"
)

// TestNamesMatchSprintf: every name of a block equals the name fmt would
// build, across the digit-width boundaries 9/10, 99/100 and 999/1000, for
// blocks that start past zero and for an empty prefix.
func TestNamesMatchSprintf(t *testing.T) {
	for _, tc := range []struct {
		prefix   string
		first, n int
	}{
		{"/mdtest/rank0/f", 7, 5},
		{"/ckpt.step3.", 95, 10},
		{"f", 998, 4},
		{"", 3, 1200},
		{"/a/", 1, 0},
	} {
		b := Names(tc.prefix, tc.first, tc.n)
		if len(b.end) != tc.n {
			t.Fatalf("Names(%q, %d, %d) holds %d names", tc.prefix, tc.first, tc.n, len(b.end))
		}
		for i := 0; i < tc.n; i++ {
			if got, want := b.At(i), fmt.Sprintf("%s%d", tc.prefix, tc.first+i); got != want {
				t.Fatalf("Names(%q, %d, %d).At(%d) = %q, want %q", tc.prefix, tc.first, tc.n, i, got, want)
			}
		}
	}
}

// TestNamesAllocs: a block costs two allocations however many names it
// holds, and naming one of its files costs none.
func TestNamesAllocs(t *testing.T) {
	for _, n := range []int{1, 64, 4096} {
		if got := testing.AllocsPerRun(20, func() { _ = Names("/mdtest/rank3/f", 90, n) }); got != 2 {
			t.Errorf("Names of %d names: %v allocations, want 2", n, got)
		}
	}
	b := Names("/mdtest/rank3/f", 90, 64)
	var s string
	if got := testing.AllocsPerRun(20, func() { s = b.At(37) }); got != 0 || s != "/mdtest/rank3/f127" {
		t.Errorf("At: %v allocations, name %q; want 0 and /mdtest/rank3/f127", got, s)
	}
}
