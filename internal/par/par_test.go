package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		requested, n, want int
	}{
		{0, 100, 1},
		{-3, 100, maxprocs},
		{2, 100, 2},
		{8, 3, 3},
		{4, 0, 1},
		{4, -2, 1},
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := Resolve(c.requested, c.n); got != c.want {
			t.Errorf("Resolve(%d, %d) = %d, want %d", c.requested, c.n, got, c.want)
		}
	}
}

func TestBlocksCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 64} {
		n := 101
		hits := make([]int32, n)
		Blocks(n, workers, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("workers=%d: bad block [%d,%d)", workers, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		n := 57
		hits := make([]int32, n)
		For(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	errItem7 := errors.New("item 7")
	errItem13 := errors.New("item 13")
	for _, workers := range []int{1, 4} {
		err := ForErr(20, workers, func(i int) error {
			switch i {
			case 7:
				return fmt.Errorf("cell failed: %w", errItem7)
			case 13:
				return fmt.Errorf("cell failed: %w", errItem13)
			}
			return nil
		})
		if !errors.Is(err, errItem7) || errors.Is(err, errItem13) {
			t.Errorf("workers=%d: got %v, want the item-7 error", workers, err)
		}
	}
	if err := ForErr(10, 4, func(int) error { return nil }); err != nil {
		t.Errorf("unexpected error %v", err)
	}
}

func TestForErrRunsAllItemsDespiteErrors(t *testing.T) {
	var ran atomic.Int32
	boom := errors.New("boom")
	_ = ForErr(30, 4, func(i int) error {
		ran.Add(1)
		if i%2 == 0 {
			return boom
		}
		return nil
	})
	if ran.Load() != 30 {
		t.Errorf("ran %d of 30 items", ran.Load())
	}
}

func TestZeroItems(t *testing.T) {
	Blocks(0, 4, func(lo, hi int) { t.Error("called") })
	For(0, 4, func(int) { t.Error("called") })
	if err := ForErr(0, 4, func(int) error { return errors.New("x") }); err != nil {
		t.Error(err)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(3)
	if p.Cap() != 3 {
		t.Fatalf("cap = %d, want 3", p.Cap())
	}
	var running, peak atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	launched := 0
	for i := 0; i < 3; i++ {
		if !p.TryAcquire() {
			t.Fatalf("slot %d unavailable on a fresh pool", i)
		}
		launched++
		p.Go(func() {
			n := running.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			started <- struct{}{}
			<-release
			running.Add(-1)
		}, nil)
	}
	for i := 0; i < launched; i++ {
		<-started
	}
	if p.TryAcquire() {
		t.Fatal("acquired a 4th slot from a 3-slot pool with all workers busy")
	}
	close(release)
	p.Wait()
	if got := peak.Load(); got != 3 {
		t.Fatalf("peak concurrency %d, want 3", got)
	}
	if !p.TryAcquire() {
		t.Fatal("slot not reusable after Wait")
	}
	p.Release()
}

func TestPoolSerialConvention(t *testing.T) {
	// workers 0 = serial (one task at a time), negative = GOMAXPROCS —
	// the same convention as Resolve-based pools.
	if got := NewPool(0).Cap(); got != 1 {
		t.Fatalf("NewPool(0) cap = %d, want 1 (serial)", got)
	}
	if got := NewPool(-1).Cap(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("NewPool(-1) cap = %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
}

func TestPoolRelease(t *testing.T) {
	p := NewPool(1)
	if !p.TryAcquire() {
		t.Fatal("fresh pool has no slot")
	}
	if p.TryAcquire() {
		t.Fatal("1-slot pool handed out two slots")
	}
	p.Release()
	if !p.TryAcquire() {
		t.Fatal("released slot not reusable")
	}
	ran := make(chan struct{})
	freed := make(chan struct{})
	p.Go(func() { close(ran) }, func() {
		// afterRelease must observe the freed slot: this is the wake
		// ordering the fleet dispatcher depends on.
		if !p.TryAcquire() {
			t.Error("afterRelease ran before the slot was returned")
			close(freed)
			return
		}
		p.Release()
		close(freed)
	})
	<-ran
	<-freed
	p.Wait()
}
