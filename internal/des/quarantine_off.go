//go:build !quarantine

package des

// Quarantine reports whether the build has the quarantine tag. Under it
// (go test -tags quarantine), a FreeList poisons each struct it is
// handed instead of reusing it, and the layers that recycle
// continuation-form state machines on free lists (netsim transfers,
// blockdev device operations, pfs calls) panic when a poisoned struct is
// resumed (Pooled.Recycled): a step that touches its state machine after
// the machine's last step then fails loudly instead of corrupting
// whichever operation reused it. Releasing a struct twice panics too.
// Without the tag the checks compile away.
const Quarantine = false
