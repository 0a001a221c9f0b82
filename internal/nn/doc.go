// Package nn is a from-scratch CNN inference and training stack: the
// substrate the MILR paper assumes (it used TensorFlow; this module is
// offline and stdlib-only, so the network engine is hand-rolled).
//
// It provides the four major CNN layer types the paper targets —
// convolution, dense, pooling, and activation (§IV) — plus the bias,
// flatten, and dropout layers its evaluation networks use. Bias is
// modelled as an independent layer exactly as the paper treats it
// ("it has its own mathematical operation, and its own relationship
// between its input, output and parameters", §IV-E).
//
// Every layer supports three execution modes:
//
//   - Forward: normal inference.
//   - RecoveryForward: the deterministic pass MILR uses during
//     initialization, detection and recovery, in which activation layers
//     are treated as identity (§IV-D) so golden tensors are reproducible
//     algebraic functions of the parameters.
//   - ForwardTrain/Backward: backpropagation, so evaluation networks can
//     actually be trained on the synthetic datasets.
//
// Inference is batch-first on top of those modes: Model.ForwardBatch
// and Model.PredictBatch stack a whole batch into one GEMM per
// conv/dense layer (BatchCapable), bit-identical to per-sample Forward
// calls at every batch size and worker count — the property the serving
// front-end (internal/serve) builds coalescing on. The batched pass
// works in a per-Model workspace (stacked activations, im2col rows,
// kernel scratch — never anything derived from the weights), so a model
// serving steadily allocates nothing per batch but its answers. Worker
// pools are threaded through WorkerTunable/Model.SetWorkers down to the
// GEMM kernel in internal/tensor. See ARCHITECTURE.md for the layer
// map and the bit-identity invariant chain.
package nn
