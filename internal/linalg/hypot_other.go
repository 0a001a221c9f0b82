//go:build !amd64

package linalg

import "math"

// hypotFold is math.Hypot: off amd64 the pivoted factor's norm folds
// call it directly (see hypot_amd64.go).
func hypotFold(p, q float64) float64 { return math.Hypot(p, q) }
