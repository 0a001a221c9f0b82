// Package fixture exercises the gemmbudget rule at a virtual path
// inside internal/serve: direct kernel and matrix-multiply calls that
// would bypass tensor.GEMMCalls accounting.
package fixture

import (
	"milr/internal/linalg"
	"milr/internal/tensor"
)

func fused(a, b *linalg.Matrix, x, w *tensor.Tensor) {
	_ = tensor.MatMul(x, w)
	_ = tensor.MatMulInto(x.Data(), x.Data(), w.Data(), 1, 1, 1, 1, nil)
	_ = tensor.ConvInto(x.Data(), x.Data(), w.Data(), 1, tensor.Conv{}, 1, nil)
	a.Mul(b)
}
