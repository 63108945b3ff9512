package workload

import (
	"strconv"
	"strings"
)

// NameBlock is a block of n numbered names, prefix+strconv.Itoa(first+i)
// for i in [0, n), packed into one string with the end offset of each
// name beside it. Building one costs two allocations whatever its length,
// and At costs none: every name is a substring of the block. A name the
// caller keeps (a namespace key, say) keeps the whole block reachable.
type NameBlock struct {
	s   string
	end []uint32
}

// Names builds the block of n names prefix+strconv.Itoa(first+i).
func Names(prefix string, first, n int) NameBlock {
	var digits [20]byte
	size := 0
	for i := 0; i < n; i++ {
		size += len(prefix) + len(strconv.AppendInt(digits[:0], int64(first+i), 10))
	}
	var b strings.Builder
	b.Grow(size)
	end := make([]uint32, n)
	for i := range end {
		b.WriteString(prefix)
		b.Write(strconv.AppendInt(digits[:0], int64(first+i), 10))
		end[i] = uint32(b.Len())
	}
	return NameBlock{s: b.String(), end: end}
}

// At returns name i, prefix+strconv.Itoa(first+i).
func (b NameBlock) At(i int) string {
	start := uint32(0)
	if i > 0 {
		start = b.end[i-1]
	}
	return b.s[start:b.end[i]]
}
