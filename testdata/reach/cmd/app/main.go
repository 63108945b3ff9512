// Command app is the fixture's entry point.
package main

import "pioeval/internal/lib"

func main() {
	var s lib.Shape = lib.NewSquare(2)
	_ = s.Area()
	_ = lib.Wrapped{}
}
