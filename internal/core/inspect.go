package core

// LayerPlanInfo is the public view of one layer's MILR plan, used by the
// inspection tool, the benchmark harness, and tests.
type LayerPlanInfo struct {
	Layer int
	Name  string
	// Role is the MILR classification: conv, dense, bias, passthrough,
	// opaque.
	Role string
	// Params is the trainable parameter count.
	Params int
	// FullSolve marks conv layers whose whole filters are recoverable
	// from golden pairs (shape and rank permitting).
	FullSolve bool
	// PartialMode marks conv layers using CRC localization + restricted
	// solving (the paper's "partial recoverable").
	PartialMode bool
	// InvertNatural marks conv layers with Y ≥ F²Z (backward pass needs
	// no help).
	InvertNatural bool
	// DummyFilters is the number of PRNG dummy filters stored to make
	// the layer invertible (0 when a checkpoint was chosen instead).
	DummyFilters int
	// BoundaryBefore marks a stored checkpoint at this layer's input.
	BoundaryBefore bool
}

// PlanInfo returns the per-layer MILR plan.
func (pr *Protector) PlanInfo() []LayerPlanInfo {
	out := make([]LayerPlanInfo, 0, len(pr.plan.layers))
	for _, lp := range pr.plan.layers {
		_, boundaryBefore := pr.plan.stored[lp.idx]
		out = append(out, LayerPlanInfo{
			Layer:          lp.idx,
			Name:           pr.model.Layer(lp.idx).Name(),
			Role:           lp.role.String(),
			Params:         lp.paramCount,
			FullSolve:      lp.fullSolve(),
			PartialMode:    lp.partialMode,
			InvertNatural:  lp.invertNatural,
			DummyFilters:   lp.dummyFilters,
			BoundaryBefore: boundaryBefore,
		})
	}
	return out
}
