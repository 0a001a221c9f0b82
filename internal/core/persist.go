package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"

	"milr/internal/crc2d"
	"milr/internal/nn"
	"milr/internal/tensor"
	"milr/internal/xmaps"
)

// Checkpoint persistence. The paper stores MILR's golden data outside
// fault-prone DRAM: "They can be stored in error-resistant mediums, such
// as the storage devices (SSD or HDD) or persistent memory" (§III). This
// file implements that boundary: Save serializes every stored artifact —
// options, checkpoints, partial checkpoints, dummy outputs, CRC codes,
// bias sums — and LoadProtector reattaches them to a model after a
// restart, *without* re-running the initialization phase.
//
// The format is versioned gob. Everything regenerable from the master
// seed (golden inputs, detection rows, dummy input rows, dummy filters)
// is deliberately NOT stored, mirroring the paper's storage accounting,
// and so is the worker count: a loaded protector runs at its model's
// (nn.Model.SetWorkers), like a freshly built one.

// persistVersion guards the on-disk format. Version 2 stores conv
// partials as row probes (see probe) and one solver-mode field per
// layer; version 1 stored centre-of-map conv partials and FullSolve.
const persistVersion = 2

// ErrBlobVersion is returned, wrapped, by LoadProtector for a blob
// written in another on-disk format version. It is checked before the
// blob's contents are decoded.
var ErrBlobVersion = errors.New("core: unsupported protector state version")

type persistedLayer struct {
	Idx         int
	Role        int
	Partial     []float32
	BiasSum     float64
	PartialMode bool
	DummyOut    []float32
	DummyShape  []int
	DenseDummy  []float32
	DenseShape  []int
	CRCs        []persistedCode
}

type persistedCode struct {
	Rows, Cols, Group int
	RowCRC, ColCRC    []uint8
}

type persistedState struct {
	Version    int
	Opts       persistedOptions
	NumLayers  int
	Boundaries []int
	Stored     map[int]persistedTensor
	Layers     []persistedLayer
}

// persistedOptions is what a blob records of its protector's
// configuration: the Options, plus the dense band the dense dummy outputs
// were built with, so a blob from a build with another band is refused
// rather than healed against the wrong dummy rows. gob matches fields by
// name, so the tolerance, CRC-group and worker-count fields older blobs
// carry are dropped on decode: a loaded engine runs at its model's
// worker count, never at one read from the blob.
type persistedOptions struct {
	Seed             uint64
	DenseBand        int
	MaxFullSolveTaps int
}

type persistedTensor struct {
	Shape []int
	Data  []float32
}

func toPersistedTensor(t *tensor.Tensor) persistedTensor {
	return persistedTensor{Shape: t.Shape(), Data: append([]float32(nil), t.Data()...)}
}

// Save writes the protector's stored state (the paper's error-resistant
// storage contents) to w. Safe to call while a fleet guard is scrubbing.
func (pr *Protector) Save(w io.Writer) error {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	st := persistedState{
		Version: persistVersion,
		Opts: persistedOptions{
			Seed:             pr.opts.Seed,
			DenseBand:        denseBand,
			MaxFullSolveTaps: pr.opts.MaxFullSolveTaps,
		},
		NumLayers:  pr.model.NumLayers(),
		Boundaries: append([]int(nil), pr.plan.boundarySet...),
		Stored:     map[int]persistedTensor{},
	}
	for _, b := range xmaps.SortedKeys(pr.plan.stored) {
		st.Stored[b] = toPersistedTensor(pr.plan.stored[b])
	}
	for _, lp := range pr.plan.layers {
		pl := persistedLayer{
			Idx:         lp.idx,
			Role:        int(lp.role),
			BiasSum:     lp.biasSum,
			PartialMode: lp.partialMode,
		}
		if lp.partial != nil {
			pl.Partial = append([]float32(nil), lp.partial.Data()...)
		}
		if lp.dummyOut != nil {
			pl.DummyOut = append([]float32(nil), lp.dummyOut.Data()...)
			pl.DummyShape = lp.dummyOut.Shape()
		}
		if lp.denseDummyOut != nil {
			pl.DenseDummy = append([]float32(nil), lp.denseDummyOut.Data()...)
			pl.DenseShape = lp.denseDummyOut.Shape()
		}
		for _, c := range lp.crcsClean {
			pl.CRCs = append(pl.CRCs, persistCode(c))
		}
		st.Layers = append(st.Layers, pl)
	}
	if err := gob.NewEncoder(w).Encode(&st); err != nil {
		return fmt.Errorf("core: save protector: %w", err)
	}
	return nil
}

// LoadProtector reconstructs a protector for model from state previously
// written by Save. The model must have the same architecture (layer
// count, types, shapes); its *current* parameters are whatever survived
// in fault-prone memory and may already be corrupted — that is the
// point: detection and recovery work immediately after loading.
//
// The state itself is untrusted input: every checkpoint boundary, solver
// mode and stored artifact must be one initialization could have
// produced for this model and the state's options, with this build's
// dense band and CRC group, or LoadProtector returns an error naming
// the layer and artifact — a blob that decodes but disagrees with the
// plan would otherwise crash the first scrub.
func LoadProtector(r io.Reader, model *nn.Model) (*Protector, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: load protector: %w", err)
	}
	// gob sizes a map from its declared length before reading any entry,
	// so a forged length in the checkpoint map would allocate without
	// bound. A first pass that skips everything but the version reads and
	// discards the entries instead, and fails on a length the input
	// cannot back.
	var skim struct{ Version int }
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&skim); err != nil {
		return nil, fmt.Errorf("core: load protector: %w", err)
	}
	if skim.Version != persistVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBlobVersion, skim.Version, persistVersion)
	}
	var st persistedState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: load protector: %w", err)
	}
	if st.NumLayers != model.NumLayers() {
		return nil, fmt.Errorf("core: state has %d layers, model has %d", st.NumLayers, model.NumLayers())
	}
	if st.Opts.DenseBand != denseBand {
		return nil, fmt.Errorf("core: state's dense band is %d, this build's is %d", st.Opts.DenseBand, denseBand)
	}
	opts := Options{Seed: st.Opts.Seed, MaxFullSolveTaps: st.Opts.MaxFullSolveTaps}
	pl, err := buildPlan(model, opts)
	if err != nil {
		return nil, err
	}
	pr := &Protector{model: model, plan: pl, opts: opts}
	// The boundary set is a function of the model and the options alone.
	if !slices.Equal(st.Boundaries, pl.boundarySet) {
		return nil, fmt.Errorf("core: state has checkpoint boundaries %v, plan has %v", st.Boundaries, pl.boundarySet)
	}
	// Every boundary but the seed-regenerated position 0 is stored.
	if len(st.Stored) != len(pl.boundarySet)-1 {
		return nil, fmt.Errorf("core: state stores %d boundary checkpoints, plan has %d", len(st.Stored), len(pl.boundarySet)-1)
	}
	for _, b := range pl.boundarySet[1:] {
		p := st.Stored[b]
		if pl.stored[b], err = loadTensor(fmt.Sprintf("boundary %d checkpoint", b), p.Data, p.Shape, model.LayerInShape(b)); err != nil {
			return nil, err
		}
	}
	if len(st.Layers) != len(pl.layers) {
		return nil, fmt.Errorf("core: state has %d layer entries, plan has %d", len(st.Layers), len(pl.layers))
	}
	for i, sl := range st.Layers {
		lp := pl.layers[i]
		if sl.Idx != lp.idx || roleKind(sl.Role) != lp.role {
			return nil, fmt.Errorf("core: layer %d role mismatch: state %d, model %s", i, sl.Role, lp.role)
		}
		name := fmt.Sprintf("layer %d (%s) ", i, model.Layer(i).Name())
		// The rank probe may only demote a full-solve conv to partial
		// mode; no other layer solves filters at all.
		if lp.role == roleConv && !sl.PartialMode && lp.partialMode || lp.role != roleConv && sl.PartialMode {
			return nil, fmt.Errorf("core: load %ssolver mode: partial=%v, plan allows full=%v",
				name, sl.PartialMode, lp.fullSolve())
		}
		lp.partialMode = sl.PartialMode
		lp.biasSum = sl.BiasSum
		// What initLayer stores for this role and solver mode; nil: none.
		var partial, dummyOut, denseDummy tensor.Shape
		crcs := 0
		switch lp.role {
		case roleConv:
			partial = tensor.Shape{lp.conv.Filters()}
			if lp.dummyFilters > 0 {
				dummyOut = tensor.Shape{lp.g2, lp.dummyFilters}
			}
			if lp.partialMode {
				crcs = lp.conv.FilterSize() * lp.conv.FilterSize()
			}
		case roleDense:
			partial, denseDummy = tensor.Shape{lp.dense.Out()}, tensor.Shape{lp.dense.In(), lp.dense.Out()}
		}
		if lp.partial, err = loadTensor(name+"partial checkpoint", sl.Partial, []int{len(sl.Partial)}, partial); err != nil {
			return nil, err
		}
		if lp.dummyOut, err = loadTensor(name+"dummy outputs", sl.DummyOut, sl.DummyShape, dummyOut); err != nil {
			return nil, err
		}
		if lp.denseDummyOut, err = loadTensor(name+"dense dummy outputs", sl.DenseDummy, sl.DenseShape, denseDummy); err != nil {
			return nil, err
		}
		if len(sl.CRCs) != crcs {
			return nil, fmt.Errorf("core: load %sCRC codes: %d stored, want %d", name, len(sl.CRCs), crcs)
		}
		if crcs > 0 {
			codes := make([]*crc2d.Code, crcs)
			z, y := lp.conv.InChannels(), lp.conv.Filters()
			for j, pc := range sl.CRCs {
				if pc.Rows != z || pc.Cols != y || pc.Group != crc2d.DefaultGroup {
					return nil, fmt.Errorf("core: load %sCRC code %d: %dx%d group %d, want %dx%d group %d",
						name, j, pc.Rows, pc.Cols, pc.Group, z, y, crc2d.DefaultGroup)
				}
				if codes[j], err = restoreCode(pc); err != nil {
					return nil, fmt.Errorf("core: load %sCRC code %d: %w", name, j, err)
				}
			}
			lp.crcs = codes
			lp.crcsClean = codes
		}
	}
	return pr, nil
}

// loadTensor rebuilds one stored artifact after checking it against the
// shape initialization gives it; want == nil means none is stored.
func loadTensor(artifact string, data []float32, shape []int, want tensor.Shape) (*tensor.Tensor, error) {
	if want == nil {
		if len(data) > 0 {
			return nil, fmt.Errorf("core: load %s: %d values stored, plan has none", artifact, len(data))
		}
		return nil, nil
	}
	if !want.Equal(shape) || len(data) != want.NumElements() {
		return nil, fmt.Errorf("core: load %s: shape %v with %d values, want %v", artifact, tensor.Shape(shape), len(data), want)
	}
	return tensor.FromSlice(append([]float32(nil), data...), want...)
}

func persistCode(c *crc2d.Code) persistedCode {
	rows, cols, group, rowCRC, colCRC := c.Export()
	return persistedCode{Rows: rows, Cols: cols, Group: group,
		RowCRC: append([]uint8(nil), rowCRC...), ColCRC: append([]uint8(nil), colCRC...)}
}

func restoreCode(pc persistedCode) (*crc2d.Code, error) {
	return crc2d.Restore(pc.Rows, pc.Cols, pc.Group, pc.RowCRC, pc.ColCRC)
}
