package nn

import (
	"fmt"
	"math"

	"milr/internal/tensor"
)

// Pool2D is max pooling: it reduces the spatial dimensions of a (H,W,Z)
// input by keeping the maximum of each non-overlapping k×k window per
// channel. Pooling "changes the input in a non-invertible way. Hence, it
// requires the addition of a checkpoint that stores the input to the
// layer" (§IV-C): the MILR planner always places a full checkpoint at a
// pooling layer's input. Pooling has no parameters, so no
// parameter-solving function.
type Pool2D struct {
	named
	k int
}

// NewMaxPool2D creates a max-pooling layer with window and stride k.
func NewMaxPool2D(k int) (*Pool2D, error) {
	if k <= 1 {
		return nil, fmt.Errorf("nn: invalid pool window %d", k)
	}
	return &Pool2D{k: k}, nil
}

// Window returns the pooling window extent.
func (p *Pool2D) Window() int { return p.k }

// OutShape implements Layer.
func (p *Pool2D) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("nn: pool %q wants (H,W,Z) input, got %v", p.name, in)
	}
	if in[0]%p.k != 0 || in[1]%p.k != 0 {
		return nil, fmt.Errorf("nn: pool %q window %d does not divide input %v", p.name, p.k, in)
	}
	return tensor.Shape{in[0] / p.k, in[1] / p.k, in[2]}, nil
}

type poolCache struct {
	argmax  []int // flat input index chosen per output element
	inShape tensor.Shape
}

func (p *Pool2D) forward(in *tensor.Tensor, wantCache bool) (*tensor.Tensor, *poolCache, error) {
	outShape, err := p.OutShape(in.Shape())
	if err != nil {
		return nil, nil, err
	}
	out := tensor.New(outShape...)
	var cache *poolCache
	var argmax []int
	if wantCache {
		cache = &poolCache{argmax: make([]int, out.NumElements()), inShape: in.Shape()}
		argmax = cache.argmax
	}
	p.reduce(out.Data(), in.Data(), in.Dim(0), in.Dim(1), in.Dim(2), argmax)
	return out, cache, nil
}

// reduce pools one (h,w,z) sample id into od; a non-nil argmax records
// the flat input index chosen per output element, −1 where no value
// beat −Inf (a window of NaN and −Inf). Each output pixel's Z channels
// start at −Inf and take the window's taps in (di, dj) order, one
// channel-contiguous row at a time, keeping a value only if it is
// strictly greater.
func (p *Pool2D) reduce(od, id []float32, h, w, z int, argmax []int) {
	oh, ow, k := h/p.k, w/p.k, p.k
	for i := 0; i < oh; i++ {
		for j := 0; j < ow; j++ {
			o := (i*ow + j) * z
			best := od[o : o+z]
			for c := range best {
				best[c] = float32(math.Inf(-1))
			}
			var arg []int
			if argmax != nil {
				arg = argmax[o : o+z]
				for c := range arg {
					arg[c] = -1
				}
			}
			for di := 0; di < k; di++ {
				for dj := 0; dj < k; dj++ {
					base := ((i*k+di)*w + j*k + dj) * z
					for c, v := range id[base : base+z] {
						if v > best[c] {
							best[c] = v
							if arg != nil {
								arg[c] = base + c
							}
						}
					}
				}
			}
		}
	}
}

// Forward implements Layer. Pooling is deterministic, so MILR's
// recovery pass uses the normal reduction; invertibility is what pooling
// lacks, and the MILR planner compensates with an input checkpoint.
func (p *Pool2D) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	out, _, err := p.forward(in, false)
	return out, err
}

// ForwardTrain implements Layer.
func (p *Pool2D) ForwardTrain(in *tensor.Tensor) (*tensor.Tensor, Cache, error) {
	out, cache, err := p.forward(in, true)
	if err != nil {
		return nil, nil, err
	}
	return out, cache, nil
}

// Backward implements Layer.
func (p *Pool2D) Backward(cache Cache, dout *tensor.Tensor) (*tensor.Tensor, error) {
	pc, ok := cache.(*poolCache)
	if !ok {
		return nil, fmt.Errorf("nn: pool %q got foreign cache %T", p.name, cache)
	}
	din := tensor.New(pc.inShape...)
	dd, dod := din.Data(), dout.Data()
	for oidx, iidx := range pc.argmax {
		if iidx >= 0 { // a window no value beat −Inf in passes no gradient
			dd[iidx] += dod[oidx]
		}
	}
	return din, nil
}
