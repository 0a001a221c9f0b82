// Package fixture exercises the ctxcheck rule at a virtual path inside
// internal/fleet: a late ctx, a discarded ctx, an ignored ctx, and two
// missing required entry points (Predict, StartGuard).
package fixture

import "context"

// PredictBatch is well-formed: ctx first, named, consulted.
func PredictBatch(ctx context.Context, xs []float32) error {
	return ctx.Err()
}

// Late takes its context second.
func Late(id int, ctx context.Context) error {
	return ctx.Err()
}

// Discarded accepts a context it cannot consult.
func Discarded(_ context.Context) error {
	return nil
}

// Ignored accepts ctx and never reads it.
func Ignored(ctx context.Context) error {
	return nil
}
