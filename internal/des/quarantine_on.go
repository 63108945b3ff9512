//go:build quarantine

package des

// Quarantine reports whether the build has the quarantine tag (see
// quarantine_off.go).
const Quarantine = true
