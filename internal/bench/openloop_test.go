package bench_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"milr/internal/bench"
	"milr/internal/fleet"
	"milr/internal/tensor"
)

// scriptedPredictor answers each input tensor as scripted and records
// when it was asked, relative to t0.
type scriptedPredictor struct {
	t0     time.Time
	script map[*tensor.Tensor]scriptedAnswer

	mu    sync.Mutex
	fired map[*tensor.Tensor][]time.Duration
}

type scriptedAnswer struct {
	class int
	err   error
}

func (p *scriptedPredictor) Predict(_ context.Context, _ string, x *tensor.Tensor) (int, error) {
	at := time.Since(p.t0)
	p.mu.Lock()
	p.fired[x] = append(p.fired[x], at)
	p.mu.Unlock()
	a := p.script[x]
	return a.class, a.err
}

func newScripted() *scriptedPredictor {
	return &scriptedPredictor{
		t0:     time.Now(),
		script: map[*tensor.Tensor]scriptedAnswer{},
		fired:  map[*tensor.Tensor][]time.Duration{},
	}
}

// TestRunOpenLoopClassifiesEveryOutcome drives one arrival of every
// outcome class through a scripted predictor and asserts every counter.
func TestRunOpenLoopClassifiesEveryOutcome(t *testing.T) {
	p := newScripted()
	a := bench.OpenLoopTarget{Name: "a"}
	for _, ans := range []scriptedAnswer{
		{class: 7}, // correct (Want 7)
		{class: 3}, // wrong   (Want 7)
		{err: fmt.Errorf("model a: %w", fleet.ErrQueueFull)}, // shed
		{err: context.DeadlineExceeded},                      // expired
		{err: fmt.Errorf("wrapped: %w", context.Canceled)},   // expired
	} {
		x := tensor.New(1)
		p.script[x] = ans
		a.Inputs = append(a.Inputs, x)
		a.Want = append(a.Want, 7)
	}
	bx := tensor.New(1)
	p.script[bx] = scriptedAnswer{class: 1}
	b := bench.OpenLoopTarget{Name: "b", Inputs: []*tensor.Tensor{bx}, Want: []int{1}}

	var arrivals []bench.Arrival
	for rep := 0; rep < 2; rep++ {
		for i := range a.Inputs {
			arrivals = append(arrivals, bench.Arrival{Target: 0, Input: i})
		}
	}
	for i := 0; i < 3; i++ {
		arrivals = append(arrivals, bench.Arrival{Target: 1, Input: 0})
	}
	res, err := bench.RunOpenLoop(context.Background(), p, []bench.OpenLoopTarget{a, b}, arrivals)
	if err != nil {
		t.Fatalf("counted outcomes reported as fatal: %v", err)
	}
	want := []bench.OpenLoopCounts{
		{Issued: 10, Correct: 2, Wrong: 2, Rejected: 2, Expired: 4},
		{Issued: 3, Correct: 3},
	}
	for i := range want {
		if res.PerTarget[i] != want[i] {
			t.Errorf("target %d counts %+v, want %+v", i, res.PerTarget[i], want[i])
		}
	}
	calls := 0
	for _, at := range p.fired {
		calls += len(at)
	}
	if calls != len(arrivals) {
		t.Errorf("predictor saw %d calls for %d arrivals", calls, len(arrivals))
	}
	if res.MaxLate != 0 {
		t.Errorf("unpaced schedule reported lateness %v", res.MaxLate)
	}
}

// TestRunOpenLoopReturnsFirstFatalError: an error that is neither shed
// load nor an expiry comes back, with the other arrivals still counted.
func TestRunOpenLoopReturnsFirstFatalError(t *testing.T) {
	p := newScripted()
	boom := errors.New("boom")
	good, bad := tensor.New(1), tensor.New(1)
	p.script[good] = scriptedAnswer{class: 2}
	p.script[bad] = scriptedAnswer{err: boom}
	tg := bench.OpenLoopTarget{Name: "m", Inputs: []*tensor.Tensor{good, bad}, Want: []int{2, 2}}
	res, err := bench.RunOpenLoop(context.Background(), p, []bench.OpenLoopTarget{tg},
		[]bench.Arrival{{Input: 0}, {Input: 1}, {Input: 0}, {Input: 1}})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the predictor's fatal error", err)
	}
	if got, want := res.PerTarget[0], (bench.OpenLoopCounts{Issued: 4, Correct: 2}); got != want {
		t.Errorf("counts %+v, want %+v", got, want)
	}
}

// TestRunOpenLoopPacing: no arrival fires before its due time and the
// issue count is exact.
func TestRunOpenLoopPacing(t *testing.T) {
	p := newScripted()
	tg := bench.OpenLoopTarget{Name: "m"}
	const n = 12
	var arrivals []bench.Arrival
	for i := 0; i < n; i++ {
		x := tensor.New(1)
		p.script[x] = scriptedAnswer{class: 0}
		tg.Inputs = append(tg.Inputs, x)
		tg.Want = append(tg.Want, 0)
		// Arrivals come in threes sharing a due time (the first three
		// unpaced): the engine is behind for two of every three.
		arrivals = append(arrivals, bench.Arrival{Input: i, Due: time.Duration(i-i%3) * 2 * time.Millisecond})
	}
	p.t0 = time.Now() // at or before the engine's own start
	res, err := bench.RunOpenLoop(context.Background(), p, []bench.OpenLoopTarget{tg}, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerTarget[0]; got.Issued != n || got.Correct != n {
		t.Fatalf("counts %+v, want %d issued and correct", got, n)
	}
	for i, a := range arrivals {
		at := p.fired[tg.Inputs[i]]
		if len(at) != 1 {
			t.Fatalf("arrival %d fired %d times", i, len(at))
		}
		if at[0] < a.Due {
			t.Errorf("arrival %d fired at %v, before its due time %v", i, at[0], a.Due)
		}
	}
	last := arrivals[n-1].Due
	if res.IssueElapsed < last || res.Elapsed < res.IssueElapsed {
		t.Errorf("issue elapsed %v / elapsed %v for a schedule ending at %v", res.IssueElapsed, res.Elapsed, last)
	}
	if res.MaxLate <= 0 {
		t.Errorf("paced schedule reported no lateness at all (%v)", res.MaxLate)
	}
}
