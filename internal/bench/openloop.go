package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"milr/internal/fleet"
	"milr/internal/tensor"
)

// Open-loop load generation: requests arrive on a precomputed schedule
// whether or not the router keeps up — the regime where admission
// control earns its keep. cmd/milr-fleet -open-loop passes wall-clock
// due times; internal/soak passes a window's arrivals, all due at once
// (its virtual clock is the window loop). Pacing is data, not a mode.

// OpenLoopTarget is one model the arrivals route to: its registered
// name, the inputs arrivals index into, and the expected class per
// input (same indexing).
type OpenLoopTarget struct {
	Name   string
	Inputs []*tensor.Tensor
	Want   []int
}

// Arrival is one scheduled request: which target, which of its inputs,
// and when — Due is the offset from the start of the RunOpenLoop call,
// zero meaning at once.
type Arrival struct {
	Target, Input int
	Due           time.Duration
}

// OpenLoopCounts is one target's traffic outcome: arrivals fired,
// answers that agree with Want and answers that do not, queue-cap
// fast-fails (fleet.ErrQueueFull), and deadline or cancellation
// expiries.
type OpenLoopCounts struct {
	Issued, Correct, Wrong, Rejected, Expired int
}

// OpenLoopResult summarizes one open-loop run.
type OpenLoopResult struct {
	// PerTarget is indexed like the targets argument.
	PerTarget []OpenLoopCounts
	// IssueElapsed runs from the call's start to the last arrival being
	// fired; Elapsed also covers waiting for the answers.
	IssueElapsed, Elapsed time.Duration
	// MaxLate is the worst amount by which a paced (Due > 0) arrival
	// fired after its due time.
	MaxLate time.Duration
}

// RunOpenLoop fires every arrival, in slice order, on its own goroutine
// — at once when Due is zero, otherwise no earlier than start+Due, and
// without sleeping when the schedule is behind — and waits for all the
// answers. Every arrival is issued exactly once, also after ctx is done
// (Predict then reports the expiry). Queue-cap rejections and context
// expiries are counted, not fatal; the first other error is returned
// alongside the counts.
func RunOpenLoop(ctx context.Context, p ModelPredictor, targets []OpenLoopTarget, arrivals []Arrival) (OpenLoopResult, error) {
	res := OpenLoopResult{PerTarget: make([]OpenLoopCounts, len(targets))}
	// mu guards firstErr and the four answer counters; Issued is only
	// ever touched by this goroutine.
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for _, a := range arrivals {
		if a.Due > 0 {
			if wait := a.Due - time.Since(start); wait > 0 {
				sleepContext(ctx, wait)
			}
			if late := time.Since(start) - a.Due; late > res.MaxLate {
				res.MaxLate = late
			}
		}
		a := a
		tg, c := &targets[a.Target], &res.PerTarget[a.Target]
		c.Issued++
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := p.Predict(ctx, tg.Name, tg.Inputs[a.Input])
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil && got == tg.Want[a.Input]:
				c.Correct++
			case err == nil:
				c.Wrong++
			case errors.Is(err, fleet.ErrQueueFull):
				c.Rejected++
			case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
				c.Expired++
			case firstErr == nil:
				firstErr = fmt.Errorf("bench: open-loop arrival for %s: %w", tg.Name, err)
			}
		}()
	}
	res.IssueElapsed = time.Since(start)
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res, firstErr
}

// sleepContext sleeps for d, or until ctx is done if that comes first.
func sleepContext(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
