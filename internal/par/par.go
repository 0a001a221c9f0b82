package par

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve returns the effective worker count for n independent work
// items under the repository's one worker convention: a requested
// count of 0 is serial, n > 0 is at most n, and a negative count is
// GOMAXPROCS; never more than n (a worker per item is the finest useful
// granularity). n <= 0 resolves to 1 so callers can always divide by
// the result.
func Resolve(requested, n int) int {
	switch {
	case n <= 0 || requested == 0:
		return 1
	case requested < 0:
		requested = runtime.GOMAXPROCS(0)
	}
	return min(requested, n)
}

// Blocks partitions [0,n) into `workers` contiguous blocks and runs
// fn(lo,hi) for each block concurrently. Static partitioning keeps each
// worker's memory walk contiguous — the right shape for blocked GEMM.
// With workers <= 1 (after Resolve) fn runs inline on the caller's
// goroutine.
func Blocks(n, workers int, fn func(lo, hi int)) {
	workers = Resolve(workers, n)
	if n <= 0 {
		return
	}
	if workers == 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// For runs fn(i) for every i in [0,n) on a bounded pool with dynamic
// (work-stealing) assignment — the right shape when per-item cost is
// uneven, e.g. per-filter recovery solves. With workers <= 1 it runs
// inline.
func For(n, workers int, fn func(i int)) {
	workers = Resolve(workers, n)
	if n <= 0 {
		return
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Pool is a long-lived bounded executor: at most its capacity of tasks
// run concurrently, and slots are reserved explicitly (TryAcquire)
// before work is started (Go), so a scheduler can decide *what* to run
// only once it knows it *can* run — the shape the fleet router needs to
// arbitrate one shared worker budget across many per-model queues.
//
// Unlike Blocks/For, a Pool is not joined per call: tasks are
// fire-and-forget from the submitter's point of view, and Wait joins
// everything still in flight (typically at shutdown).
type Pool struct {
	sem chan struct{}
	wg  sync.WaitGroup
}

// NewPool builds a Pool whose capacity is Resolve(workers) with no item
// bound: 0 runs one task at a time, n > 0 at most n, negative
// GOMAXPROCS.
func NewPool(workers int) *Pool {
	return &Pool{sem: make(chan struct{}, Resolve(workers, math.MaxInt))}
}

// Cap returns the pool's concurrency bound.
func (p *Pool) Cap() int { return cap(p.sem) }

// TryAcquire reserves one slot without blocking and reports whether it
// succeeded. A reserved slot must be consumed by exactly one Go call
// (or returned with Release).
func (p *Pool) TryAcquire() bool {
	select {
	case p.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot reserved by TryAcquire that will not be used.
func (p *Pool) Release() { <-p.sem }

// Go runs fn on a new goroutine using a slot previously reserved with
// TryAcquire, releasing the slot when fn returns and then calling
// afterRelease (when non-nil). Calling Go without a reservation breaks
// the pool's bound — the reserve-then-run split is the point: it lets
// a single dispatcher pick work only when a worker is actually free.
// The afterRelease ordering matters for the same reason: a dispatcher
// woken by it is guaranteed to see the freed slot, where a wake-up
// fired from inside fn could be consumed before the release and leave
// the dispatcher parked forever.
func (p *Pool) Go(fn, afterRelease func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		fn()
		<-p.sem
		if afterRelease != nil {
			afterRelease()
		}
	}()
}

// Wait blocks until every task started with Go has returned.
func (p *Pool) Wait() { p.wg.Wait() }

// ForErr is For with error collection. All items run (no early abort —
// the work is side-effect-bearing and partial completion must stay
// well-defined); the error with the lowest index is returned so the
// caller sees the same error regardless of worker count.
func ForErr(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if Resolve(workers, n) == 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	For(n, workers, func(i int) {
		errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
