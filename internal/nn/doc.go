// Package nn is a from-scratch CNN inference and training stack: the
// substrate the MILR paper assumes (it used TensorFlow; this module is
// offline and stdlib-only, so the network engine is hand-rolled).
//
// It provides the four major CNN layer types the paper targets —
// convolution, dense, max pooling, and the ReLU activation (§IV) — plus
// the bias and flatten layers its evaluation networks use, and nothing
// else: NewModel rejects any other layer type. Bias is modelled as an
// independent layer exactly as the paper treats it ("it has its own
// mathematical operation, and its own relationship between its input,
// output and parameters", §IV-E).
//
// Every layer supports two execution modes:
//
//   - Forward: normal inference.
//   - ForwardTrain/Backward: backpropagation, so evaluation networks can
//     actually be trained on the synthetic datasets.
//
// Inference has one path, and it is batch-first: Model.ForwardBatch
// and Model.PredictBatch stack a whole batch into one GEMM per
// conv/dense layer, streaming the im2col rows into the
// kernel. A single-sample Forward or Predict — of a conv or dense layer
// or of a Model — is that pass on a batch of one. So is the
// deterministic pass MILR uses during initialization and recovery,
// Model.ForwardRange with recovery set: the same stacked loop over a
// layer range, with ReLU skipped as the identity (§IV-D), so golden
// tensors are reproducible algebraic functions of the parameters. A
// sample's result is bit-identical at every batch size and worker count to the
// per-sample materialised-im2col forward kept as the test oracle
// (forward_oracle_test.go) — the property the serving front-end
// (internal/serve) builds coalescing on. A Model's pass works in a
// workspace from its free list (stacked activations and kernel
// scratch — never anything derived from the weights), so a model
// serving steadily allocates nothing per batch but its answers, and a
// golden propagation nothing but the tensor it returns; a lone layer's
// ForwardBatch uses a throw-away one. A model holds one worker
// count (Model.SetWorkers); its conv and dense layers read it and pass
// it to the GEMM kernel in internal/tensor, and a layer outside any
// model runs serially. See ARCHITECTURE.md for the layer map and the
// bit-identity invariant chain.
package nn
