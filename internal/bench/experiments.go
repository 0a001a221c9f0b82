package bench

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"milr/internal/availability"
	"milr/internal/faults"
	"milr/internal/nn"
	"milr/internal/tensor"
)

// Scheme is a protection strategy under test.
type Scheme int

const (
	// NoRecovery measures the raw effect of the injected errors.
	NoRecovery Scheme = iota + 1
	// ECCOnly scrubs with SECDED.
	ECCOnly
	// MILROnly self-heals with MILR.
	MILROnly
	// ECCPlusMILR scrubs first, then self-heals — the paper's combined
	// configuration.
	ECCPlusMILR
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case NoRecovery:
		return "No recovery"
	case ECCOnly:
		return "ECC"
	case MILROnly:
		return "MILR"
	case ECCPlusMILR:
		return "ECC + MILR"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// BoxStats summarizes the paper's box plots: median, quartiles, whiskers.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
	N                        int
}

// ComputeBoxStats builds the summary from raw samples.
func ComputeBoxStats(vals []float64) BoxStats {
	if len(vals) == 0 {
		return BoxStats{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(f float64) float64 {
		pos := f * float64(len(s)-1)
		lo := int(pos)
		hi := lo + 1
		if hi >= len(s) {
			return s[len(s)-1]
		}
		frac := pos - float64(lo)
		return s[lo]*(1-frac) + s[hi]*frac
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return BoxStats{
		Min: s[0], Q1: q(0.25), Median: q(0.5), Q3: q(0.75), Max: s[len(s)-1],
		Mean: sum / float64(len(s)), N: len(s),
	}
}

// SweepPoint is one error rate's outcome under one scheme.
type SweepPoint struct {
	Rate   float64
	Scheme Scheme
	Stats  BoxStats
	// DetectedAll counts runs where every layer carrying errors was
	// flagged (the paper reports this detection-coverage rate, §V-B).
	DetectedAll int
}

// SweepResult is a whole figure: rates × schemes.
type SweepResult struct {
	Name   string
	Points []SweepPoint
}

// PaperRBERRates are the x axes of Figures 5, 7 and 9.
var PaperRBERRates = []float64{1e-7, 5e-7, 1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3}

// PaperWholeWeightRates are the x axes of Figures 6, 8 and 10.
var PaperWholeWeightRates = []float64{1e-7, 5e-7, 1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3}

// RBERSweep reproduces the random bit-flip figures: for each error rate
// and scheme, inject, optionally repair, and measure normalized
// accuracy over cfg.Runs runs.
func RBERSweep(env *Env, rates []float64, schemes []Scheme) (*SweepResult, error) {
	return sweep(env, rates, schemes, func(e *Env, inj *faults.Injector, rate float64) error {
		inj.BitFlips(e.Model, rate)
		return nil
	}, "RBER")
}

// WholeWeightSweep reproduces the whole-weight error figures (every bit
// of a hit weight flipped) — the plaintext-space error model where ECC
// is not applicable.
func WholeWeightSweep(env *Env, rates []float64, schemes []Scheme) (*SweepResult, error) {
	return sweep(env, rates, schemes, func(e *Env, inj *faults.Injector, rate float64) error {
		inj.WholeWeights(e.Model, rate)
		return nil
	}, "whole-weight")
}

// CiphertextSweep injects bit flips into the AES-XTS ciphertext of the
// weights instead of the plaintext: the PSEC scenario of §I where each
// flip garbles a 16-byte block.
func CiphertextSweep(env *Env, rates []float64, schemes []Scheme) (*SweepResult, error) {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(0x9e ^ i*31)
	}
	return sweep(env, rates, schemes, func(e *Env, inj *faults.Injector, rate float64) error {
		_, err := inj.CiphertextBitFlips(e.Model, rate, key)
		return err
	}, "ciphertext")
}

// sweep runs the rates × schemes × runs campaign grid. Each cell is
// independent — reset, inject with a seed derived only from the cell's
// (rate, run) coordinates, repair per the scheme, measure — so cells
// shard across environment clones (Config.Workers) with bit-identical
// results at every worker count.
// The inject callback receives the cell's environment — never capture
// the campaign's master env in an injector, or sharded cells would
// corrupt the master while measuring their clone.
func sweep(env *Env, rates []float64, schemes []Scheme, inject func(*Env, *faults.Injector, float64) error, name string) (*SweepResult, error) {
	type cellResult struct {
		acc     float64
		covered bool
	}
	nS, runs := len(schemes), env.Config.Runs
	cells := make([]cellResult, len(rates)*nS*runs)
	// One completion counter per (rate, scheme) point: whichever worker
	// finishes a point's last cell logs it, so progress streams during
	// the campaign (serial runs log in exactly the historical order).
	pointDone := make([]atomic.Int32, len(rates)*nS)
	logPoint := func(pi int) {
		ri, si := pi/nS, pi%nS
		vals := make([]float64, runs)
		for run := 0; run < runs; run++ {
			vals[run] = cells[pi*runs+run].acc
		}
		env.Config.logf("  [%s %s] rate %.0e: median %.3f (n=%d)", name, schemes[si], rates[ri],
			ComputeBoxStats(vals).Median, len(vals))
	}
	err := env.forEachCell(len(cells), func(e *Env, idx int) error {
		ri := idx / (nS * runs)
		si := (idx / runs) % nS
		run := idx % runs
		if err := e.Reset(); err != nil {
			return err
		}
		// The injection seed ignores the scheme on purpose: every scheme
		// at a given (rate, run) faces the identical error pattern, as in
		// the paper's controlled comparison.
		inj := faults.New(runSeed(e.Config.Seed, ri, run))
		if err := inject(e, inj, rates[ri]); err != nil {
			return err
		}
		covered, err := applyScheme(e, schemes[si])
		if err != nil {
			return err
		}
		acc, err := e.NormalizedAccuracy()
		if err != nil {
			return err
		}
		cells[idx] = cellResult{acc: acc, covered: covered}
		pi := ri*nS + si
		if int(pointDone[pi].Add(1)) == runs {
			logPoint(pi)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	result := &SweepResult{Name: name}
	for ri, rate := range rates {
		for si, scheme := range schemes {
			vals := make([]float64, 0, runs)
			detectedAll := 0
			for run := 0; run < runs; run++ {
				c := cells[(ri*nS+si)*runs+run]
				vals = append(vals, c.acc)
				if c.covered {
					detectedAll++
				}
			}
			result.Points = append(result.Points, SweepPoint{
				Rate:        rate,
				Scheme:      scheme,
				Stats:       ComputeBoxStats(vals),
				DetectedAll: detectedAll,
			})
		}
	}
	return result, nil
}

// applyScheme repairs the injected errors per the scheme and reports
// whether the repair path believes it covered everything (for MILR: no
// approximate/failed layers).
func applyScheme(env *Env, scheme Scheme) (bool, error) {
	switch scheme {
	case NoRecovery:
		return true, nil
	case ECCOnly:
		stats, err := env.ScrubECC()
		if err != nil {
			return false, err
		}
		return stats.Uncorrectable == 0, nil
	case ECCPlusMILR:
		if _, err := env.ScrubECC(); err != nil {
			return false, err
		}
		return applyScheme(env, MILROnly)
	case MILROnly:
		_, rec, err := env.Protector.SelfHeal()
		if err != nil {
			return false, err
		}
		return rec.AllRecovered(), nil
	default:
		return false, fmt.Errorf("bench: unknown scheme %d", scheme)
	}
}

// LayerRow is one row of the whole-layer corruption tables (IV/VI/VIII).
type LayerRow struct {
	Label string
	// NoneAcc is the normalized accuracy with the corrupted layer left
	// in place.
	NoneAcc float64
	// MILRAcc is the normalized accuracy after MILR recovery.
	MILRAcc float64
	// Partial marks the paper's "N/A — convolution partial recoverable"
	// rows (our measured best-effort accuracy is still reported).
	Partial bool
}

// WholeLayerTable corrupts each parameterized layer in turn (every value
// replaced with a fresh random one), measures the damage, self-heals,
// and measures recovery. The per-layer trials are independent cells and
// shard across environment clones (Config.Workers).
func WholeLayerTable(env *Env) ([]LayerRow, error) {
	info := env.Protector.PlanInfo()
	// Label pass first (cheap, order-dependent counters), cells second.
	type layerCell struct {
		li      int
		label   string
		partial bool
	}
	var cellDefs []layerCell
	convN, denseN := -1, -1
	for li, l := range env.Model.Layers() {
		if _, ok := l.(nn.Parameterized); !ok {
			continue
		}
		var label string
		switch l.(type) {
		case *nn.Conv2D:
			convN++
			label = numbered("Conv.", convN)
		case *nn.Dense:
			denseN++
			label = numbered("Dense", denseN)
		case *nn.Bias:
			// The paper labels bias rows after their host layer.
			switch {
			case convN >= 0 && denseN < 0:
				label = numbered("Conv.", convN) + " Bias"
			default:
				label = numbered("Dense", denseN) + " Bias"
			}
		}
		partial := info[li].Role == "conv" && info[li].PartialMode
		cellDefs = append(cellDefs, layerCell{li: li, label: label, partial: partial})
	}
	rows := make([]LayerRow, len(cellDefs))
	err := env.forEachCell(len(cellDefs), func(e *Env, idx int) error {
		cell := cellDefs[idx]
		if err := e.Reset(); err != nil {
			return err
		}
		p := e.Model.Layer(cell.li).(nn.Parameterized)
		faults.New(runSeed(e.Config.Seed, cell.li, 7)).OverwriteLayer(p)
		noneAcc, err := e.NormalizedAccuracy()
		if err != nil {
			return err
		}
		if _, _, err := e.Protector.SelfHeal(); err != nil {
			return err
		}
		milrAcc, err := e.NormalizedAccuracy()
		if err != nil {
			return err
		}
		rows[idx] = LayerRow{Label: cell.label, NoneAcc: noneAcc, MILRAcc: milrAcc, Partial: cell.partial}
		env.Config.logf("  [layer %s] none %.3f, MILR %.3f%s", cell.label, noneAcc, milrAcc,
			map[bool]string{true: " (partial)", false: ""}[cell.partial])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func numbered(base string, n int) string {
	if n == 0 {
		return base
	}
	return fmt.Sprintf("%s %d", base, n)
}

// TimingResult reproduces Table X.
type TimingResult struct {
	SinglePrediction time.Duration
	BatchPerSample   time.Duration
	Identification   time.Duration
}

// Timing measures single-prediction latency, amortized per-sample
// prediction cost over the test set through the batch-first path (one
// stacked GEMM per conv/dense layer per nn.DefaultEvalBatch samples),
// and MILR's error-identification (detection) time at the environment's
// configured worker count.
func Timing(env *Env) (*TimingResult, error) {
	if err := env.Reset(); err != nil {
		return nil, err
	}
	x := env.Test[0].X
	// Warm up, then measure single prediction.
	if _, err := env.Model.Forward(x); err != nil {
		return nil, err
	}
	start := time.Now()
	const singleReps = 5
	for i := 0; i < singleReps; i++ {
		if _, err := env.Model.Forward(x); err != nil {
			return nil, err
		}
	}
	single := time.Since(start) / singleReps
	// Amortized batch: the whole test set through ForwardBatch in
	// DefaultEvalBatch-sized chunks.
	xs := make([]*tensor.Tensor, 0, nn.DefaultEvalBatch)
	start = time.Now()
	for lo := 0; lo < len(env.Test); lo += nn.DefaultEvalBatch {
		hi := lo + nn.DefaultEvalBatch
		if hi > len(env.Test) {
			hi = len(env.Test)
		}
		xs = xs[:0]
		for _, s := range env.Test[lo:hi] {
			xs = append(xs, s.X)
		}
		if _, err := env.Model.ForwardBatch(xs); err != nil {
			return nil, err
		}
	}
	batch := time.Since(start) / time.Duration(len(env.Test))
	// Identification = one detection pass.
	start = time.Now()
	if _, err := env.Protector.Detect(); err != nil {
		return nil, err
	}
	ident := time.Since(start)
	return &TimingResult{SinglePrediction: single, BatchPerSample: batch, Identification: ident}, nil
}

// RecoveryPoint is one sample of the Figure 11 curve.
type RecoveryPoint struct {
	Errors  int
	Elapsed time.Duration
}

// RecoveryTimeCurve flips exact error counts and times detection +
// recovery, reproducing the recovery-time-vs-errors relationship of
// Figure 11.
func RecoveryTimeCurve(env *Env, errorCounts []int) ([]RecoveryPoint, error) {
	var out []RecoveryPoint
	for i, n := range errorCounts {
		if err := env.Reset(); err != nil {
			return nil, err
		}
		faults.New(runSeed(env.Config.Seed, i, 13)).FlipExactBits(env.Model, n)
		start := time.Now()
		if _, _, err := env.Protector.SelfHeal(); err != nil {
			return nil, err
		}
		out = append(out, RecoveryPoint{Errors: n, Elapsed: time.Since(start)})
		env.Config.logf("  [recovery-time] %d errors: %v", n, out[len(out)-1].Elapsed)
	}
	if err := env.Reset(); err != nil {
		return nil, err
	}
	return out, nil
}

// AvailabilityCurve builds the Figure 12 trade-off from measured
// timings at the environment's configured worker count (Config.Workers)
// — Eq. 6's Td and Tr are whatever the parallel engine actually
// achieves, not the serial assumption.
func AvailabilityCurve(env *Env, points int) ([]availability.Point, error) {
	return AvailabilityCurveWorkers(env, points, env.Config.Workers)
}

// AvailabilityCurveWorkers is AvailabilityCurve with an explicit worker
// count for the detection/recovery timing measurements: Eq. 6 trades
// downtime (I·Td + Tr) against accuracy, and parallel detection shrinks
// Td, shifting the whole curve toward higher availability at equal
// accuracy. The environment's previous worker configuration is restored
// before returning.
func AvailabilityCurveWorkers(env *Env, points, workers int) ([]availability.Point, error) {
	if workers != env.Config.Workers {
		prev := env.Config.Workers
		env.SetWorkers(workers)
		defer env.SetWorkers(prev)
	}
	timing, err := Timing(env)
	if err != nil {
		return nil, err
	}
	// Worst-case recovery: time one full self-heal after a dense burst.
	rec, err := RecoveryTimeCurve(env, []int{256})
	if err != nil {
		return nil, err
	}
	params := availability.Params{
		DetectSeconds:      timing.Identification.Seconds(),
		RecoverSeconds:     rec[0].Elapsed.Seconds(),
		WeightBits:         float64(env.Model.ParamCount()) * 32,
		DetectionsPerError: 2,
	}
	return availability.Curve(params, points)
}
