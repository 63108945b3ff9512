package lib

import "testing"

// TestOptions is the only writer of Options.TestOnly.
func TestOptions(t *testing.T) {
	o := Options{TestOnly: 1}
	if o.TestOnly != 1 {
		t.Fatal("TestOnly not set")
	}
}
