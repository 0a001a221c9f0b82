package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Shape describes the extent of each tensor dimension, outermost first.
type Shape []int

// NumElements returns the total number of elements a tensor of this shape
// holds. The empty shape describes a scalar and has one element.
func (s Shape) NumElements() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// String renders the shape as "(d0,d1,...)", matching the paper's notation.
func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprint(d)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Tensor is a dense, row-major N-dimensional array of float32.
type Tensor struct {
	shape   Shape
	strides []int
	data    []float32
}

// New allocates a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	s := Shape(shape).Clone()
	return &Tensor{
		shape:   s,
		strides: computeStrides(s),
		data:    make([]float32, s.NumElements()),
	}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); the caller must not alias it unless intended.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	s := Shape(shape).Clone()
	if len(data) != s.NumElements() {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %v (%d elements)",
			len(data), s, s.NumElements())
	}
	return &Tensor{shape: s, strides: computeStrides(s), data: data}, nil
}

// MustFromSlice is FromSlice for static initialization; it panics on
// mismatched sizes, which indicates a programming error.
func MustFromSlice(data []float32, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

func computeStrides(s Shape) []int {
	strides := make([]int, len(s))
	acc := 1
	for i := len(s) - 1; i >= 0; i-- {
		strides[i] = acc
		acc *= s[i]
	}
	return strides
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() Shape { return t.shape.Clone() }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the extent of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NumElements returns the total element count.
func (t *Tensor) NumElements() int { return len(t.data) }

// Data returns the flat backing slice. Mutations are visible to the
// tensor; this is the intended mechanism for fault injection and for the
// linear-algebra bridge.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom overwrites this tensor's contents with src's. Shapes must match
// in element count (shape itself is preserved).
func (t *Tensor) CopyFrom(src *Tensor) error {
	if len(t.data) != len(src.data) {
		return fmt.Errorf("tensor: copy size mismatch %d vs %d", len(t.data), len(src.data))
	}
	copy(t.data, src.data)
	return nil
}

// offset computes the flat index for the given multi-index.
func (t *Tensor) offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, v := range idx {
		if v < 0 || v >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of bounds for dim %d (extent %d)", v, i, t.shape[i]))
		}
		off += v * t.strides[i]
	}
	return off
}

// At returns the element at the multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx...)] }

// Set stores v at the multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx...)] = v }

// Reshape returns a view-with-copy of the tensor under a new shape with
// the same element count. Data is shared (no copy), matching the flatten
// layer semantics where reshaping is information-preserving.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	s := Shape(shape).Clone()
	if s.NumElements() != len(t.data) {
		return nil, fmt.Errorf("tensor: cannot reshape %v (%d elements) to %v (%d elements)",
			t.shape, len(t.data), s, s.NumElements())
	}
	return &Tensor{shape: s, strides: computeStrides(s), data: t.data}, nil
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Apply replaces every element x with f(x).
func (t *Tensor) Apply(f func(float32) float32) {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
}

// Add accumulates o into t element-wise. Shapes must have equal element
// counts.
func (t *Tensor) Add(o *Tensor) error {
	if len(t.data) != len(o.data) {
		return fmt.Errorf("tensor: add size mismatch %d vs %d", len(t.data), len(o.data))
	}
	for i, v := range o.data {
		t.data[i] += v
	}
	return nil
}

// Sub subtracts o from t element-wise.
func (t *Tensor) Sub(o *Tensor) error {
	if len(t.data) != len(o.data) {
		return fmt.Errorf("tensor: sub size mismatch %d vs %d", len(t.data), len(o.data))
	}
	for i, v := range o.data {
		t.data[i] -= v
	}
	return nil
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// t and o. It is the comparison primitive used by MILR's detection phase
// when matching layer outputs against golden checkpoints.
func (t *Tensor) MaxAbsDiff(o *Tensor) (float64, error) {
	if len(t.data) != len(o.data) {
		return 0, fmt.Errorf("tensor: diff size mismatch %d vs %d", len(t.data), len(o.data))
	}
	var m float64
	for i := range t.data {
		d := math.Abs(float64(t.data[i]) - float64(o.data[i]))
		if d > m {
			m = d
		}
	}
	return m, nil
}

// Equalish reports whether all elements of t and o agree within tol.
func (t *Tensor) Equalish(o *Tensor, tol float64) bool {
	d, err := t.MaxAbsDiff(o)
	return err == nil && d <= tol
}

// ArgMax returns the flat index of the maximum element. Ties resolve to
// the lowest index. It panics on empty tensors (programming error).
func (t *Tensor) ArgMax() int { return ArgMax(t.data) }

// ArgMax is Tensor.ArgMax on a bare slice: the index of the maximum
// element, ties to the lowest index. It panics on an empty slice.
func ArgMax(data []float32) int {
	if len(data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := data[0], 0
	for i, v := range data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Sum returns the sum of all elements in float64.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// String renders small tensors fully and large tensors as a summary.
func (t *Tensor) String() string {
	if len(t.data) <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v[%d elements]", t.shape, len(t.data))
}
