package nn

import "milr/internal/tensor"

// workspace is the memory one batched forward pass works in: the two
// stacked activation buffers the layers alternate between, and the GEMM
// kernel's scratch (which includes each worker's compacted copy of the
// conv input rows in flight; a convolution reads its unpadded input, so
// there is no padded-input buffer). A Model keeps the
// workspaces its ForwardBatch calls have returned on a free list, so a
// model serving steadily allocates nothing per batch; buffers grow to
// the largest demand seen and are never shrunk.
//
// Every buffer is written before it is read within a call, and nothing
// in a workspace is derived from a layer's parameters beyond the GEMM
// that computed it: the live parameter tensors are the fault surface
// MILR guards, so a pass must read them afresh — a copy kept here would
// keep serving clean answers from corrupted memory, and let a scrub pass
// over it.
type workspace struct {
	act  [2][]float32
	gemm tensor.Scratch
}

// checkout takes a workspace off the model's free list, or makes an
// empty one: concurrent callers each hold their own.
func (m *Model) checkout() *workspace {
	m.wsMu.Lock()
	defer m.wsMu.Unlock()
	if n := len(m.wsFree); n > 0 {
		ws := m.wsFree[n-1]
		m.wsFree = m.wsFree[:n-1]
		return ws
	}
	return new(workspace)
}

// checkin returns a workspace to the free list.
func (m *Model) checkin(ws *workspace) {
	m.wsMu.Lock()
	defer m.wsMu.Unlock()
	m.wsFree = append(m.wsFree, ws)
}
