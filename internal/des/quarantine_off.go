//go:build !quarantine

package des

// Quarantine reports whether the build has the quarantine tag. Under it
// (go test -tags quarantine), the layers that recycle continuation-form
// state machines on free lists (netsim transfers, blockdev device
// operations, pfs calls) poison each struct they release instead of
// reusing it, and a poisoned struct that is resumed panics: a step that
// touches its state machine after the machine's last step then fails
// loudly instead of corrupting whichever operation reused it. Without the
// tag the check compiles away.
const Quarantine = false
