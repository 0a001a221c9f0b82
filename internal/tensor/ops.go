package tensor

import "fmt"

// MatMul computes C = A·B for 2-D tensors A(M,N) and B(N,P), the dense
// layer's forward operation (paper §IV-A). Accumulation is float64 to
// keep the algebraic identities MILR relies on as tight as float32
// storage permits. It is MatMulWorkers on one worker — the same kernel,
// so the two are bit-identical by construction.
func MatMul(a, b *Tensor) (*Tensor, error) {
	return MatMulWorkers(a, b, 1)
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) (*Tensor, error) {
	if a.Rank() != 2 {
		return nil, fmt.Errorf("tensor: transpose requires rank-2 tensor, got %v", a.Shape())
	}
	m, n := a.Dim(0), a.Dim(1)
	t := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t.data[j*m+i] = a.data[i*n+j]
		}
	}
	return t, nil
}

// Pad2D zero-pads the spatial (first two) dimensions of a (H,W,Z) tensor
// by p on every side, producing (H+2p, W+2p, Z). p == 0 returns a clone.
func Pad2D(in *Tensor, p int) (*Tensor, error) {
	if in.Rank() != 3 {
		return nil, fmt.Errorf("tensor: Pad2D requires (H,W,Z) tensor, got %v", in.Shape())
	}
	if p < 0 {
		return nil, fmt.Errorf("tensor: negative padding %d", p)
	}
	if p == 0 {
		return in.Clone(), nil
	}
	h, w, z := in.Dim(0), in.Dim(1), in.Dim(2)
	out := New(h+2*p, w+2*p, z)
	for i := 0; i < h; i++ {
		srcOff := i * w * z
		dstOff := ((i+p)*(w+2*p) + p) * z
		copy(out.data[dstOff:dstOff+w*z], in.data[srcOff:srcOff+w*z])
	}
	return out, nil
}

// Crop2D removes p rows/columns of spatial padding from a (H,W,Z) tensor,
// inverting Pad2D.
func Crop2D(in *Tensor, p int) (*Tensor, error) {
	if in.Rank() != 3 {
		return nil, fmt.Errorf("tensor: Crop2D requires (H,W,Z) tensor, got %v", in.Shape())
	}
	if p < 0 {
		return nil, fmt.Errorf("tensor: negative crop %d", p)
	}
	h, w, z := in.Dim(0), in.Dim(1), in.Dim(2)
	if p == 0 {
		return in.Clone(), nil
	}
	if 2*p >= h || 2*p >= w {
		return nil, fmt.Errorf("tensor: crop %d too large for %v", p, in.Shape())
	}
	out := New(h-2*p, w-2*p, z)
	for i := 0; i < h-2*p; i++ {
		srcOff := ((i+p)*w + p) * z
		copy(out.data[i*(w-2*p)*z:(i+1)*(w-2*p)*z], in.data[srcOff:srcOff+(w-2*p)*z])
	}
	return out, nil
}

// Im2Col lowers a padded (H,W,Z) input to the convolution's coefficient
// matrix: one row per output position (G·G rows), one column per filter
// tap (F·F·Z columns), for stride s. This is exactly the matrix of the
// G² equations in F²Z unknowns that MILR's conv parameter solver uses
// (paper §IV-B-b), and composing it with a (F²Z, Y) filter matrix
// reproduces the forward convolution. Inference multiplies the same
// matrix without forming it (ConvInto).
func Im2Col(padded *Tensor, f, s int) (*Tensor, error) {
	if padded.Rank() != 3 {
		return nil, fmt.Errorf("tensor: Im2Col requires (H,W,Z) tensor, got %v", padded.Shape())
	}
	if f <= 0 || s <= 0 {
		return nil, fmt.Errorf("tensor: invalid filter %d or stride %d", f, s)
	}
	h, w, z := padded.Dim(0), padded.Dim(1), padded.Dim(2)
	if h < f || w < f {
		return nil, fmt.Errorf("tensor: filter %d too large for input %v", f, padded.Shape())
	}
	gh, gw := (h-f)/s+1, (w-f)/s+1
	out := New(gh*gw, f*f*z)
	dst := out.data // rows in output order, each F filter rows of F·Z
	for i := 0; i < gh; i++ {
		for j := 0; j < gw; j++ {
			for f1 := 0; f1 < f; f1++ {
				src := ((i*s+f1)*w + j*s) * z
				dst = dst[copy(dst, padded.data[src:src+f*z]):]
			}
		}
	}
	return out, nil
}

// Col2Im scatters an im2col matrix (G²  rows, F²Z columns) back into a
// padded (H,W,Z) input, averaging the overlapping contributions. MILR's
// conv backward pass solves each sub-region independently and then
// "combines them into the input" (paper §IV-B-a); averaging the overlaps
// suppresses float rounding differences between the per-region solutions.
func Col2Im(cols *Tensor, h, w, z, f, s int) (*Tensor, error) {
	if cols.Rank() != 2 {
		return nil, fmt.Errorf("tensor: Col2Im requires rank-2 tensor, got %v", cols.Shape())
	}
	gh := (h-f)/s + 1
	gw := (w-f)/s + 1
	if cols.Dim(0) != gh*gw || cols.Dim(1) != f*f*z {
		return nil, fmt.Errorf("tensor: Col2Im shape %v incompatible with h=%d w=%d z=%d f=%d s=%d",
			cols.Shape(), h, w, z, f, s)
	}
	sum := make([]float64, h*w*z)
	cnt := make([]int, h*w*z)
	row := 0
	for i := 0; i < gh; i++ {
		for j := 0; j < gw; j++ {
			src := cols.data[row*f*f*z : (row+1)*f*f*z]
			col := 0
			for f1 := 0; f1 < f; f1++ {
				for f2 := 0; f2 < f; f2++ {
					base := ((i*s+f1)*w + (j*s + f2)) * z
					for zz := 0; zz < z; zz++ {
						sum[base+zz] += float64(src[col])
						cnt[base+zz]++
						col++
					}
				}
			}
			row++
		}
	}
	out := New(h, w, z)
	for i := range sum {
		if cnt[i] > 0 {
			out.data[i] = float32(sum[i] / float64(cnt[i]))
		}
	}
	return out, nil
}

// Col2ImSum scatters an im2col matrix back into a padded (H,W,Z) input
// shape, summing overlapping contributions. This is the adjoint of Im2Col
// and the correct fold for gradient backpropagation (where Col2Im's
// averaging would be wrong).
func Col2ImSum(cols *Tensor, h, w, z, f, s int) (*Tensor, error) {
	if cols.Rank() != 2 {
		return nil, fmt.Errorf("tensor: Col2ImSum requires rank-2 tensor, got %v", cols.Shape())
	}
	gh := (h-f)/s + 1
	gw := (w-f)/s + 1
	if cols.Dim(0) != gh*gw || cols.Dim(1) != f*f*z {
		return nil, fmt.Errorf("tensor: Col2ImSum shape %v incompatible with h=%d w=%d z=%d f=%d s=%d",
			cols.Shape(), h, w, z, f, s)
	}
	out := New(h, w, z)
	row := 0
	for i := 0; i < gh; i++ {
		for j := 0; j < gw; j++ {
			src := cols.data[row*f*f*z : (row+1)*f*f*z]
			col := 0
			for f1 := 0; f1 < f; f1++ {
				base := ((i*s+f1)*w + j*s) * z
				for k := 0; k < f*z; k++ {
					out.data[base+k] += src[col]
					col++
				}
			}
			row++
		}
	}
	return out, nil
}

// ConvOutputSize returns G = (M − F + 2P)/S + 1, the spatial output
// extent of a convolution (paper Eq. G), and whether the configuration
// divides evenly.
func ConvOutputSize(m, f, pad, s int) (int, bool) {
	num := m - f + 2*pad
	if num < 0 || s <= 0 {
		return 0, false
	}
	return num/s + 1, num%s == 0
}
