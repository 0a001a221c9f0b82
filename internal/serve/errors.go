package serve

import (
	"errors"
	"fmt"
)

// ErrQueueFull is the sentinel behind every admission rejection: the
// model's queue was at its configured cap, and the request was refused
// in O(1) without occupying a queue slot — shed load or retry later.
// The dispatcher (internal/fleet) wraps it in a *QueueFullError naming
// the model and the cap, so errors.Is matches the rejection and
// errors.As recovers the details.
var ErrQueueFull = errors.New("admission queue full")

// QueueFullError is the concrete error every admission rejection wraps
// around the ErrQueueFull sentinel: it names the model whose queue
// refused the request and the cap it enforced — exactly what an HTTP
// gateway needs to build a useful 429 response. Match it with
// errors.As; errors.Is(err, ErrQueueFull) keeps working through Unwrap.
type QueueFullError struct {
	// Model is the fleet model whose queue was at cap.
	Model string
	// Cap is the configured queue cap the rejection enforced.
	Cap int
}

// Error renders the rejection with the model and the cap. The gateway
// sends this text as its 429 body.
func (e *QueueFullError) Error() string {
	return fmt.Sprintf("fleet: model %q: %v (cap %d)", e.Model, ErrQueueFull, e.Cap)
}

// Unwrap exposes the ErrQueueFull sentinel to errors.Is.
func (e *QueueFullError) Unwrap() error { return ErrQueueFull }
