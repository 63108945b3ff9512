// Command app is the fixture's entry point.
package main

import (
	"flag"

	"pioeval/internal/lib"
)

func main() {
	var s lib.Shape = lib.NewSquare(2)
	_ = s.Area()
	_ = lib.Wrapped{}
	_ = lib.Double(3)

	o := &lib.Options{Keyed: 1}
	o.Assigned = 2
	flag.IntVar(&o.Bound, "bound", 0, "a flag-bound field")
	o.Indexed[0] = 3
	_ = []lib.Pair{{1, 2}}
	_ = lib.Other{}
}
