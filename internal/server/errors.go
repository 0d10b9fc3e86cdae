package server

import (
	"errors"
	"fmt"
	"time"
)

// ErrDraining is returned by Do once the server has begun its graceful
// drain: already-accepted requests complete, new ones are refused.
var ErrDraining = errors.New("server: draining")

// Overloaded is the admission-control rejection: the target shard's
// mailbox is full. The request was NOT accepted; the caller may retry
// after RetryAfter.
type Overloaded struct {
	// Shard is the shard that refused the request.
	Shard int
	// QueueLen and QueueCap describe the mailbox at rejection time.
	QueueLen, QueueCap int
	// RetryAfter is the suggested backoff: capped exponential in the
	// shard's consecutive-rejection streak, so a persistently full shard
	// pushes callers further away while a transient spike costs ~1ms.
	RetryAfter time.Duration
}

// Error implements error.
func (o *Overloaded) Error() string {
	return fmt.Sprintf("server: shard %d overloaded (%d/%d queued), retry after %s",
		o.Shard, o.QueueLen, o.QueueCap, o.RetryAfter)
}

// Unavailable is the fail-stop rejection: the target shard escalated a
// persistent durability failure to the terminal failed state and
// refuses all work until the process is restarted against a repaired
// disk. Unlike Overloaded this is not transient — RetryAfter is the
// interval at which a caller probing for a replacement process should
// re-check, not a promise the shard will come back.
type Unavailable struct {
	// Shard is the failed shard.
	Shard int
	// RetryAfter is the suggested probe interval.
	RetryAfter time.Duration
	// Cause is the durability fault that escalated the shard.
	Cause error
}

// Error implements error.
func (u *Unavailable) Error() string {
	return fmt.Sprintf("server: shard %d unavailable (persistent durability failure: %v), retry after %s",
		u.Shard, u.Cause, u.RetryAfter)
}

// Unwrap exposes the escalating fault to errors.Is/As.
func (u *Unavailable) Unwrap() error { return u.Cause }

// Refused is the client's view of a 4xx reply other than 429: the server
// rejected the batch as sent (a malformed request, a body over the size
// limit), and will reject a resend the same way.
type Refused struct {
	// Status is the HTTP status code.
	Status int
	// Message is the reply body: the server's diagnostic.
	Message string
}

// Error implements error.
func (r *Refused) Error() string {
	return fmt.Sprintf("server: batch refused (HTTP %d): %s", r.Status, r.Message)
}

// failedRetryAfter is the probe interval advertised by a failed shard.
const failedRetryAfter = time.Second

// overloadBase is the first-rejection retry hint; the hint doubles with
// each consecutive rejection up to overloadCapShift doublings (64ms).
const (
	overloadBase     = time.Millisecond
	overloadCapShift = 6
)

func retryAfter(streak uint32) time.Duration {
	shift := streak
	if shift > 0 {
		shift--
	}
	if shift > overloadCapShift {
		shift = overloadCapShift
	}
	return overloadBase << shift
}
