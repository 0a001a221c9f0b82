package core

import (
	"fmt"

	"milr/internal/tensor"
)

// Affine-layer algebra (extension beyond the paper's four layer types;
// see internal/nn/affine.go). Per channel c the layer computes
// y = g[c]·x + b[c]; with a golden input/output pair every broadcast
// position contributes one equation in the two unknowns (g, b), so the
// closed-form least-squares line fit recovers them:
//
//	g = cov(x, y) / var(x),   b = mean(y) − g·mean(x)
//
// Detection stores two output values per channel at distinct inputs —
// two points determine the line, so any (g, b) change that preserves
// both stored outputs is impossible, unlike the bias layer's sum scheme
// which admits cancellation.

// affinePartialCheckpoint stores outputs at the first two broadcast
// positions of each channel of the layer-local PRNG input (2·C values).
func (pr *Protector) affinePartialCheckpoint(lp *layerPlan) (*tensor.Tensor, error) {
	out, err := lp.affine.RecoveryForward(pr.detectInput(lp))
	if err != nil {
		return nil, fmt.Errorf("core: partial checkpoint affine layer %d: %w", lp.idx, err)
	}
	c := lp.affine.Width()
	if out.NumElements() < 2*c {
		return nil, fmt.Errorf("core: affine layer %d output too small (%d values) for 2 probes per channel",
			lp.idx, out.NumElements())
	}
	partial := tensor.New(2 * c)
	pd := partial.Data()
	od := out.Data()
	copy(pd[:c], od[:c])    // broadcast position 0
	copy(pd[c:], od[c:2*c]) // broadcast position 1
	return partial, nil
}

// detectAffine compares the two stored probes per channel.
func (pr *Protector) detectAffine(lp *layerPlan) (*LayerFinding, error) {
	out, err := lp.affine.RecoveryForward(pr.detectInput(lp))
	if err != nil {
		return nil, fmt.Errorf("core: detect affine layer %d: %w", lp.idx, err)
	}
	c := lp.affine.Width()
	od := out.Data()
	pd := lp.partial.Data()
	var flagged []int
	for ch := 0; ch < c; ch++ {
		if relMismatch(float64(od[ch]), float64(pd[ch]), pr.opts.DetectTol) ||
			relMismatch(float64(od[c+ch]), float64(pd[c+ch]), pr.opts.DetectTol) {
			flagged = append(flagged, ch)
		}
	}
	if len(flagged) == 0 {
		return nil, nil
	}
	return &LayerFinding{Layer: lp.idx, Name: pr.model.Layer(lp.idx).Name(), Columns: flagged}, nil
}

// recoverAffine re-solves flagged channels by line fit over the golden
// pair's broadcast positions. Verification (detectAffine) is an
// element-wise pass with no GEMM.
func (pr *Protector) recoverAffine(lp *layerPlan, f LayerFinding, goldenIn, goldenOut *tensor.Tensor) (RecoveryResult, error) {
	res := RecoveryResult{Layer: lp.idx, Name: pr.model.Layer(lp.idx).Name()}
	c := lp.affine.Width()
	id, od := goldenIn.Data(), goldenOut.Data()
	if len(id) != len(od) {
		return res, fmt.Errorf("core: affine layer %d golden pair size mismatch %d vs %d", lp.idx, len(id), len(od))
	}
	n := len(id) / c
	if n < 2 {
		return res, fmt.Errorf("core: affine layer %d has %d positions per channel; need ≥ 2", lp.idx, n)
	}
	gains, shifts := lp.affine.Gain(), lp.affine.Shift()
	for _, ch := range f.Columns {
		if ch < 0 || ch >= c {
			return res, fmt.Errorf("core: affine channel %d out of range [0,%d)", ch, c)
		}
		var sx, sy, sxx, sxy float64
		for i := 0; i < n; i++ {
			x := float64(id[i*c+ch])
			y := float64(od[i*c+ch])
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
		}
		den := sxx - sx*sx/float64(n)
		if den == 0 {
			res.Status = Failed
			res.Detail = fmt.Sprintf("channel %d: constant golden input, gain unrecoverable", ch)
			return res, nil
		}
		g := (sxy - sx*sy/float64(n)) / den
		b := (sy - g*sx) / float64(n)
		if relMismatch(g, float64(gains[ch]), pr.opts.KeepTol) {
			gains[ch] = float32(g)
		}
		if relMismatch(b, float64(shifts[ch]), pr.opts.KeepTol) {
			shifts[ch] = float32(b)
		}
		res.Solved += 2
	}
	still, err := pr.detectAffine(lp)
	if err != nil {
		return res, err
	}
	if still == nil {
		res.Status = Recovered
	} else {
		res.Status = Approximate
		res.Detail = fmt.Sprintf("%d channels still mismatch", len(still.Columns))
	}
	return res, nil
}
