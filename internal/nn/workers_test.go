package nn

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"milr/internal/prng"
	"milr/internal/tensor"
)

// TestSetWorkersKeepsCount: the model and every GEMM layer report the
// count SetWorkers stored, whatever its size; a count is never
// narrowed into another meaning (serial, or GOMAXPROCS). A layer built
// into no model runs serially, and one built into a second model
// follows that model.
func TestSetWorkersKeepsCount(t *testing.T) {
	m, err := NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, -1, math.MaxInt, math.MinInt} {
		m.SetWorkers(n)
		if got := m.Workers(); got != n {
			t.Errorf("SetWorkers(%d): Workers() = %d", n, got)
		}
		for _, l := range m.Layers() {
			if got, ok := layerWorkers(l); ok && got != n {
				t.Errorf("SetWorkers(%d): layer %s reads %d", n, l.Name(), got)
			}
		}
	}

	conv, err := NewConv2D(3, 1, 2, 1, Valid)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := layerWorkers(conv); got != 0 {
		t.Errorf("standalone conv reads %d workers, want 0 (serial)", got)
	}
	first, err := NewModel(tensor.Shape{5, 5, 1}, conv)
	if err != nil {
		t.Fatal(err)
	}
	first.SetWorkers(3)
	second, err := NewModel(tensor.Shape{6, 6, 1}, conv)
	if err != nil {
		t.Fatal(err)
	}
	second.SetWorkers(5)
	first.SetWorkers(7)
	if got, _ := layerWorkers(conv); got != 5 {
		t.Errorf("conv rebuilt into a second model reads %d workers, want that model's 5", got)
	}
}

// layerWorkers is the count a GEMM layer's forward pass runs at; ok is
// false for the other layers.
func layerWorkers(l Layer) (n int, ok bool) {
	switch l := l.(type) {
	case *Conv2D:
		return loadWorkers(l.workers), true
	case *Dense:
		return loadWorkers(l.workers), true
	}
	return 0, false
}

// TestLiveRetuneMatchesSerial: while one goroutine retunes the model
// between serial, three workers and GOMAXPROCS, concurrent ForwardBatch
// calls and recovery passes (ForwardRange over the whole net, MILR's
// golden propagation) on the tiny and MNIST nets, which check
// workspaces out of the same free list, still answer bit-identically
// to the serial pass.
func TestLiveRetuneMatchesSerial(t *testing.T) {
	for _, build := range []func() (*Model, error){NewTinyNet, NewMNISTNet} {
		m, err := build()
		if err != nil {
			t.Fatal(err)
		}
		m.InitWeights(3)
		batches := make([]*tensorBatch, 0, 3)
		for i, pass := range []func(*Model, []*tensor.Tensor) ([]*tensor.Tensor, error){
			(*Model).ForwardBatch, (*Model).ForwardBatch, recoveryPass,
		} {
			b := &tensorBatch{pass: pass}
			for j := 0; j < 3; j++ {
				b.xs = append(b.xs, prng.TensorFor(uint64(10*i+j)+1, 0x11fe, m.InShape()...))
			}
			if b.want, err = pass(m, b.xs); err != nil {
				t.Fatal(err)
			}
			batches = append(batches, b)
		}

		done := make(chan struct{})
		var tuner sync.WaitGroup
		tuner.Add(1)
		go func() {
			defer tuner.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
					m.SetWorkers([]int{0, 3, -1}[i%3])
					runtime.Gosched()
				}
			}
		}()
		errs := make(chan error, len(batches))
		var runners sync.WaitGroup
		for _, b := range batches {
			runners.Add(1)
			go func() {
				defer runners.Done()
				errs <- b.check(m, 4)
			}()
		}
		runners.Wait()
		close(done)
		tuner.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Error(err)
			}
		}
		m.SetWorkers(0)
	}
}

// recoveryPass runs MILR's recovery pass over the whole net on each
// sample.
func recoveryPass(m *Model, xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	outs := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		var err error
		if outs[i], err = m.ForwardRange(0, m.NumLayers(), x, true); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// tensorBatch is a batch of inputs, the pass that runs it and the
// pass's serial outputs.
type tensorBatch struct {
	xs, want []*tensor.Tensor
	pass     func(*Model, []*tensor.Tensor) ([]*tensor.Tensor, error)
}

// check runs the batch reps times and reports the first bit that
// differs from the serial answer.
func (b *tensorBatch) check(m *Model, reps int) error {
	for r := 0; r < reps; r++ {
		got, err := b.pass(m, b.xs)
		if err != nil {
			return err
		}
		for s := range got {
			for i, w := range b.want[s].Data() {
				if g := got[s].Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
					return fmt.Errorf("rep %d sample %d element %d: %v under retuning, %v serial", r, s, i, g, w)
				}
			}
		}
	}
	return nil
}
