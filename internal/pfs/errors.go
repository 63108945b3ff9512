package pfs

import (
	"errors"
	"fmt"
)

// Fault-path errors. Server-side failures surface to clients as typed
// errors so that the resilience policy (retry / backoff / degraded mode)
// and callers can classify them with errors.Is.
var (
	// ErrNoSuchOST reports an OST id outside the deployment.
	ErrNoSuchOST = errors.New("pfs: no such OST")
	// ErrClosedHandle reports I/O on a closed file handle.
	ErrClosedHandle = errors.New("pfs: operation on closed handle")
	// ErrHandleOpen is the value CreateE and OpenE panic with (wrapped,
	// with the path) when the caller-owned handle they are to open into
	// is still open: a handle is re-opened only once it has been closed.
	ErrHandleOpen = errors.New("pfs: create or open into a handle that is still open")
	// ErrOSTDown reports a request to a crashed object storage target.
	ErrOSTDown = errors.New("pfs: OST down")
	// ErrMDSUnavailable reports a metadata request during an MDS outage.
	ErrMDSUnavailable = errors.New("pfs: MDS unavailable")
	// ErrTimeout reports an RPC abandoned after the simulated timeout.
	ErrTimeout = errors.New("pfs: request timed out")
	// ErrIO reports a transient per-request I/O failure (injected).
	ErrIO = errors.New("pfs: transient I/O error")
	// ErrBadSlowdown reports an invalid slowdown/degradation factor.
	ErrBadSlowdown = errors.New("pfs: slowdown factor must be >= 1")
)

// retryable reports whether the resilience policy may retry after err:
// only transient transport/server failures qualify, never namespace errors
// (ErrExist, ErrNotExist, ...) whose side effects are final.
func retryable(err error) bool {
	return errors.Is(err, ErrOSTDown) ||
		errors.Is(err, ErrMDSUnavailable) ||
		errors.Is(err, ErrTimeout) ||
		errors.Is(err, ErrIO)
}

// DegradedReadError reports a read completed in degraded mode: the stripes
// on healthy OSTs were read, but Missing bytes lived on unreachable
// targets. It unwraps to the underlying fault (usually ErrOSTDown) so
// errors.Is classification still works.
type DegradedReadError struct {
	Path      string
	Requested int64
	Missing   int64
	Cause     error
}

// Error implements error.
func (e *DegradedReadError) Error() string {
	return fmt.Sprintf("pfs: degraded read of %s: %d of %d bytes unavailable: %v",
		e.Path, e.Missing, e.Requested, e.Cause)
}

// Unwrap exposes the underlying fault.
func (e *DegradedReadError) Unwrap() error { return e.Cause }
