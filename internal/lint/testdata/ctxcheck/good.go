// Package fixture satisfies the ctxcheck contract for internal/fleet:
// every required entry point present, ctx first, named, consulted;
// helpers without contexts are untouched.
package fixture

import "context"

// Predict consults its context.
func Predict(ctx context.Context, x []float32) error {
	return ctx.Err()
}

// PredictBatch hands its context to a helper, which counts as
// consulting it.
func PredictBatch(ctx context.Context, xs [][]float32) error {
	for range xs {
		if err := Predict(ctx, nil); err != nil {
			return err
		}
	}
	return nil
}

// StartGuard stops with its context.
func StartGuard(ctx context.Context, every int) error {
	<-ctx.Done()
	return ctx.Err()
}

// Stats is exported but takes no context — out of scope.
func Stats() int { return 0 }
