// Package milr is a from-scratch Go reproduction of "MILR: Mathematically
// Induced Layer Recovery for Plaintext Space Error Correction of CNNs"
// (Ponader, Kundu, Solihin — DSN 2021).
//
// MILR is a software-only error detection and self-healing scheme for CNN
// weights. It exploits the algebraic relationship between each layer's
// input, parameters and output: knowing two of the three recovers the
// third. Partial checkpoints (one stored output per filter or parameter
// column, against seeded pseudo-random inputs) detect erroneous layers;
// golden input/output pairs moved through the network from sparse full
// checkpoints let MILR re-solve the erroneous parameters — repairing
// multi-bit, whole-weight and whole-layer errors that SECDED ECC cannot,
// which is exactly what matters in the plaintext space of encrypted VMs
// where one ciphertext bit flip garbles a whole AES block of weights.
//
// This package is the public façade. The implementation lives in the
// internal packages:
//
//	internal/nn           CNN inference + training substrate
//	internal/core         the MILR engine (init / detect / recover)
//	internal/ecc          SECDED (39,32) baseline
//	internal/xts          AES-XTS memory-encryption model
//	internal/crc2d        2-D CRC weight localization
//	internal/faults       fault injectors (RBER, whole-weight, layers)
//	internal/dataset      deterministic synthetic datasets
//	internal/bench        per-table/figure experiment harness
//	internal/availability Eq. 6 availability–accuracy model
//
// Quick start — one Runtime carries the seed, worker pools and engine
// policy; every long-running entry point takes a context:
//
//	ctx := context.Background()
//	rt := milr.NewRuntime(milr.WithSeed(42), milr.WithWorkers(4))
//	model, _ := milr.NewMNISTNet()
//	model.InitWeights(42)
//	prot, _ := rt.Protect(ctx, model)
//	// ... weights get corrupted in fault-prone memory ...
//	det, rec, _ := prot.SelfHealContext(ctx)
//
// Inference is batch-first: Model.ForwardBatch and Model.PredictBatch
// stack a whole batch into one GEMM per conv/dense layer, bit-identical
// to per-sample Forward calls. Recovery is batched the same way: one
// golden-propagation sweep per checkpoint segment heals every flagged
// layer in it, at most one propagation GEMM per conv/dense layer per
// segment, bit-identical to healing layer by layer (see
// ARCHITECTURE.md, "Recovery invariants").
//
// For serving, NewFleet starts a batch-coalescing router: concurrent
// single-sample Predict calls queue up per named model and execute as
// few large GEMMs over one shared batch budget, still bit-identical to
// direct calls, with weighted fair arbitration, queue caps
// (WithQueueCap → ErrQueueFull) and a default request deadline
// (WithDefaultDeadline). RegisterProtected serves a model inside its
// protector's engine lock, and StartGuard self-heals every protected
// model on one round-robin schedule — the deployment loop of the
// paper's availability analysis (§V-E):
//
//	fl := milr.NewFleet(rt)
//	defer fl.Close()
//	_ = fl.RegisterProtected("mnist", prot, milr.WithModelWeight(2))
//	_ = fl.StartGuard(ctx, 50*time.Millisecond)
//	class, _ := fl.Predict(ctx, "mnist", x) // concurrent callers coalesce
//
// See ARCHITECTURE.md for the layer map and the invariants each layer
// guarantees, and the package examples for runnable versions of these
// snippets.
package milr

import (
	"context"
	"io"
	"time"

	"milr/internal/core"
	"milr/internal/nn"
	"milr/internal/tensor"
)

// Re-exported types: the full method sets of these types are part of the
// public API.
type (
	// Model is an ordered stack of CNN layers with a fixed input shape.
	Model = nn.Model
	// Sample is one labelled input for training or evaluation.
	Sample = nn.Sample
	// Layer is the common interface of all network layers.
	Layer = nn.Layer
	// Parameterized is implemented by layers MILR protects (conv, dense,
	// bias).
	Parameterized = nn.Parameterized

	// Protector attaches MILR protection to a model.
	Protector = core.Protector
	// Options is the engine configuration a Runtime protects models
	// with: seed and conv cost policy. The engine runs at its model's
	// worker count (Model.SetWorkers); the method's tolerances, dense
	// band and CRC group are constants.
	Options = core.Options
	// DetectionReport is the log of erroneous layers detection produces.
	DetectionReport = core.DetectionReport
	// RecoveryReport lists per-layer recovery outcomes.
	RecoveryReport = core.RecoveryReport
	// StorageReport itemizes MILR's error-resistant storage cost.
	StorageReport = core.StorageReport
	// LayerPlanInfo exposes the per-layer checkpoint/solver plan.
	LayerPlanInfo = core.LayerPlanInfo

	// Tensor is a dense row-major N-dimensional float32 array.
	Tensor = tensor.Tensor
	// Shape describes tensor extents, outermost dimension first.
	Shape = tensor.Shape
)

// Runtime is the engine's configuration root: one value carries the
// master seed, the worker-pool policy for every parallel level
// (inference GEMM, engine scrub/solve, protector initialization, the
// fleet's batch budget), the conv cost policy, and the evaluation and
// serving batch shape. Build one with NewRuntime and functional
// options; the zero-option Runtime has seed 0, no cost cap and serial
// pools.
//
// A Runtime is immutable after construction and safe for concurrent use;
// derive variants with With.
type Runtime struct {
	opts     core.Options
	workers  int
	batch    int
	maxDelay time.Duration
	queueCap int
	deadline time.Duration
	// workersSet records an explicit WithWorkers choice: only then do
	// Protect, Evaluate and Fleet registration retune the model's
	// worker count, so a hand-tuned model (Model.SetWorkers) is never
	// silently reset to serial by a runtime that was built without a
	// worker policy.
	workersSet bool
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithSeed sets the master seed every PRNG artifact (golden inputs,
// detection rows, dummy data) derives from.
func WithSeed(seed uint64) Option {
	return func(rt *Runtime) { rt.opts.Seed = seed }
}

// WithWorkers bounds every worker pool the runtime configures. It is
// the worker count Protect, Evaluate and Fleet registration set on the
// model (Model.SetWorkers), which its GEMM forward passes and the
// engine protecting it — concurrent layer scrubs, per-filter and
// per-column solves, protector initialization — all run at; and it is
// a Fleet's shared batch budget. 0 keeps everything serial, n > 0 uses
// at most n goroutines per pool, negative resolves to GOMAXPROCS. Every
// parallel path is bit-identical to the serial one, so this is purely a
// throughput knob.
func WithWorkers(n int) Option {
	return func(rt *Runtime) {
		rt.workers = n
		rt.workersSet = true
	}
}

// WithMaxFullSolveTaps caps the F²Z size above which conv layers are
// forced into partial-recoverability mode — the paper's cost policy for
// the large CIFAR network. Zero means no cap.
func WithMaxFullSolveTaps(taps int) Option {
	return func(rt *Runtime) { rt.opts.MaxFullSolveTaps = taps }
}

// WithBatchSize sets how many samples Runtime.Evaluate stacks per GEMM
// and the largest batch a Fleet coalesces per model; values below 1
// clamp to 1 (per-sample), matching the evaluator's own clamping.
func WithBatchSize(b int) Option {
	return func(rt *Runtime) {
		if b < 1 {
			b = 1
		}
		rt.batch = b
	}
}

// DefaultMaxBatchDelay is the coalescing window a Fleet uses unless
// WithMaxBatchDelay overrides it: long enough for concurrent clients to
// land in one batch, short enough to stay invisible next to a
// conv-layer GEMM. See README.md's tuning section.
const DefaultMaxBatchDelay = 2 * time.Millisecond

// WithMaxBatchDelay sets how long a Fleet holds a model's partial batch
// open for more requests to coalesce before flushing it. Zero disables
// the wait: the fleet still coalesces whatever has already queued up, but
// never delays a request to fill a batch (lowest latency, least
// coalescing). Negative values clamp to zero.
func WithMaxBatchDelay(d time.Duration) Option {
	return func(rt *Runtime) {
		if d < 0 {
			d = 0
		}
		rt.maxDelay = d
	}
}

// NewRuntime builds a Runtime from functional options.
func NewRuntime(opts ...Option) *Runtime {
	rt := &Runtime{
		batch:    nn.DefaultEvalBatch,
		maxDelay: DefaultMaxBatchDelay,
	}
	for _, o := range opts {
		o(rt)
	}
	return rt
}

// With derives a new Runtime with additional options applied; the
// receiver is unchanged.
func (rt *Runtime) With(opts ...Option) *Runtime {
	out := *rt
	for _, o := range opts {
		o(&out)
	}
	return &out
}

// Seed returns the configured master seed.
func (rt *Runtime) Seed() uint64 { return rt.opts.Seed }

// Workers returns the configured worker-pool bound.
func (rt *Runtime) Workers() int { return rt.workers }

// BatchSize returns the evaluation and serving batch size.
func (rt *Runtime) BatchSize() int { return rt.batch }

// Options returns the engine options this runtime protects models with.
func (rt *Runtime) Options() Options { return rt.opts }

// Protect runs MILR's initialization phase on a model under this
// runtime's configuration: it plans checkpoints and computes every
// stored artifact. An explicit worker policy (WithWorkers) is applied
// to the model first, so the per-layer initialization work (rank probes
// dominate) runs on its pool, and the returned Protector scrubs and
// heals at the model's worker count from then on. On failure the model
// keeps the worker count it had. The context cancels initialization;
// the returned Protector's Detect/Recover/SelfHeal all have ...Context
// forms for cancellation and deadlines.
func (rt *Runtime) Protect(ctx context.Context, m *Model) (*Protector, error) {
	if m == nil || !rt.workersSet {
		return core.NewProtectorContext(ctx, m, rt.opts)
	}
	prev := m.Workers()
	m.SetWorkers(rt.workers)
	pr, err := core.NewProtectorContext(ctx, m, rt.opts)
	if err != nil {
		m.SetWorkers(prev)
	}
	return pr, err
}

// tune applies an explicit worker policy (WithWorkers) to the model. A
// runtime built without one leaves the model alone, and a nil model is
// left for the callee to reject.
func (rt *Runtime) tune(m *Model) {
	if m != nil && rt.workersSet {
		m.SetWorkers(rt.workers)
	}
}

// Evaluate returns classification accuracy on samples through the
// batch-first inference path (one stacked GEMM per conv/dense layer per
// batch of BatchSize samples). An explicit worker policy (WithWorkers)
// is applied to the model, as in Protect. The context is checked
// between batches. Accuracy is identical to per-sample evaluation at
// every batch size and worker count.
func (rt *Runtime) Evaluate(ctx context.Context, m *Model, samples []Sample) (float64, error) {
	rt.tune(m)
	return nn.EvaluateBatchContext(ctx, m, samples, rt.batch)
}

// SaveProtector persists a protector's golden data (what the paper keeps
// on SSD/persistent memory).
func SaveProtector(pr *Protector, w io.Writer) error { return pr.Save(w) }

// LoadProtector reattaches persisted golden data to a model after a
// restart, skipping the initialization phase. A blob in another on-disk
// format version fails with an error matching ErrBlobVersion.
func LoadProtector(r io.Reader, m *Model) (*Protector, error) {
	return core.LoadProtector(r, m)
}

// ErrBlobVersion is returned, wrapped, by LoadProtector when the saved
// blob was written in an on-disk format version this build does not
// read; match it with errors.Is.
var ErrBlobVersion = core.ErrBlobVersion

// ErrNonFiniteWeight is returned, wrapped, by Runtime.Protect when a
// model parameter is NaN or ±Inf: MILR's golden data would be computed
// from it. The error names the layer and the parameter's index; match
// it with errors.Is.
var ErrNonFiniteWeight = core.ErrNonFiniteWeight

// NewTensor allocates a zero tensor of the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// TensorFromSlice wraps data in a tensor of the given shape.
func TensorFromSlice(data []float32, shape ...int) (*Tensor, error) {
	return tensor.FromSlice(data, shape...)
}

// Recovery statuses, re-exported from the engine.
const (
	// Recovered means a layer verifies clean after re-solving.
	Recovered = core.Recovered
	// Approximate means a least-squares best effort was applied (the
	// paper's partial-recoverability cases).
	Approximate = core.Approximate
	// Failed means no solution could be produced.
	Failed = core.Failed
)

// Network constructors for the paper's evaluation models.
var (
	// NewMNISTNet builds the Table I network (28×28×1 → 10 classes).
	NewMNISTNet = nn.NewMNISTNet
	// NewCIFARSmallNet builds the Table II network (32×32×3 → 10).
	NewCIFARSmallNet = nn.NewCIFARSmallNet
	// NewCIFARLargeNet builds the Table III network (32×32×3 → 10).
	NewCIFARLargeNet = nn.NewCIFARLargeNet
	// NewTinyNet builds a miniature fully-recoverable network for
	// experimentation.
	NewTinyNet = nn.NewTinyNet
)

// Train fits a model to samples with SGD + momentum.
func Train(m *Model, samples []Sample, cfg TrainConfig) (float64, error) {
	return nn.Train(m, samples, cfg)
}

// TrainConfig configures Train.
type TrainConfig = nn.TrainConfig
