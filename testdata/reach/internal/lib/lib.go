// Package lib is a fixture for TestReachScanner: each exported method
// below is one case of the method rule, each exported field one case of
// the field rule.
package lib

// Shape is the interface Square.Area is called through.
type Shape interface{ Area() int }

// Square is reached: the app names it.
type Square struct{ n int }

// NewSquare returns a square of side n.
func NewSquare(n int) *Square { return &Square{n: n} }

// Area is selected only on a Shape, so the name-based scan reaches it.
func (s *Square) Area() int { return s.n * s.n }

// Perimeter is selected nowhere: unreached.
func (s *Square) Perimeter() int { return 4 * s.n }

// Grow is selected only inside its own body: unreached.
func (s *Square) Grow(k int) {
	if k > 0 {
		s.n++
		s.Grow(k - 1)
	}
}

// Double is a function the app calls as lib.Double.
func Double(n int) int { return 2 * n }

// Double is selected nowhere: lib.Double names the function.
func (s *Square) Double() { s.n *= 2 }

// Wrapped carries an error.
type Wrapped struct{ err error }

// Unwrap is selected nowhere, but errors.Unwrap calls it through an
// interface: exempt.
func (w Wrapped) Unwrap() error { return w.err }

// Harness is on the fixture allowlist, so its methods and fields are
// covered.
type Harness struct{ Verbose bool }

// Run is selected nowhere, but follows its allowlisted type.
func (Harness) Run() {}

// Options has one field per way of writing it.
type Options struct {
	Keyed    int   // a key of a literal of the type
	Assigned int   // assigned
	Bound    int   // bound to a flag by address
	Indexed  []int // written through an index
	TestOnly int   // set only by a test: unreached
}

// Pair is written only by an unkeyed literal, which writes every field.
type Pair struct{ A, B int }

// Other has a field of Options.Keyed's name that nothing writes.
type Other struct{ Keyed int }
