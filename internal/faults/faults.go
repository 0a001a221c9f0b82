package faults

import (
	"encoding/binary"
	"fmt"
	"math"

	"milr/internal/nn"
	"milr/internal/prng"
	"milr/internal/xts"
)

// Injector draws all randomness from a dedicated deterministic stream so
// experiments are reproducible.
type Injector struct {
	stream *prng.Stream
}

// New creates an injector with its own stream.
func New(seed uint64) *Injector {
	return &Injector{stream: prng.New(seed)}
}

// nextEvent returns the distance to the next success of a Bernoulli(p)
// trial sequence (geometric skipping). Returns a negative value when p
// is so small the skip overflows practical ranges.
func (in *Injector) nextEvent(p float64) int {
	if p <= 0 {
		return -1
	}
	if p >= 1 {
		return 0
	}
	u := in.stream.Float64()
	// Skip ~ floor(ln(1-u)/ln(1-p)).
	k := math.Floor(math.Log1p(-u) / math.Log1p(-p))
	if k < 0 || k > 1e15 {
		return -1
	}
	return int(k)
}

// forEachEvent invokes fn for each index in [0,n) selected independently
// with probability p, in increasing order.
func (in *Injector) forEachEvent(n int, p float64, fn func(idx int)) int {
	count := 0
	idx := 0
	for {
		skip := in.nextEvent(p)
		if skip < 0 {
			return count
		}
		idx += skip
		if idx >= n {
			return count
		}
		fn(idx)
		count++
		idx++
	}
}

// paramTensors lists the parameter tensors of all parameterized layers in
// order.
func paramTensors(m *nn.Model) []nn.Parameterized {
	var out []nn.Parameterized
	for _, l := range m.Layers() {
		if p, ok := l.(nn.Parameterized); ok {
			out = append(out, p)
		}
	}
	return out
}

// BitFlips flips each bit of every parameter with probability rate and
// returns the number of flipped bits (experiment 1, Figures 5/7/9).
func (in *Injector) BitFlips(m *nn.Model, rate float64) int {
	total := 0
	for _, p := range paramTensors(m) {
		data := p.Params().Data()
		total += in.forEachEvent(len(data)*32, rate, func(idx int) {
			w := idx / 32
			b := uint(idx % 32)
			data[w] = math.Float32frombits(math.Float32bits(data[w]) ^ (1 << b))
		})
	}
	return total
}

// WholeWeights flips every bit of each parameter independently with
// probability rate, the paper's whole-weight error model (experiment 2,
// Figures 6/8/10): "Whole-weights are injected by flipping every bit in a
// weight with a probability of q."
func (in *Injector) WholeWeights(m *nn.Model, rate float64) int {
	total := 0
	for _, p := range paramTensors(m) {
		data := p.Params().Data()
		total += in.forEachEvent(len(data), rate, func(idx int) {
			data[idx] = math.Float32frombits(math.Float32bits(data[idx]) ^ 0xffffffff)
		})
	}
	return total
}

// OverwriteLayer replaces every parameter of the layer with a fresh
// random value guaranteed to differ from the original (experiment 3,
// Tables IV/VI/VIII: "each layer individually has all of its parameters
// replaced by a random values, where none of the values were the same as
// the original value").
func (in *Injector) OverwriteLayer(p nn.Parameterized) {
	data := p.Params().Data()
	for i := range data {
		for {
			v := in.stream.Uniform(-1, 1)
			if v != data[i] {
				data[i] = v
				break
			}
		}
	}
}

// CiphertextStats reports what a ciphertext-space injection did.
type CiphertextStats struct {
	// CiphertextFlips is the number of ciphertext bits flipped.
	CiphertextFlips int
	// CorruptedWeights counts weights whose plaintext changed — each
	// ciphertext flip garbles a full 16-byte AES block, i.e. 4 float32
	// weights, demonstrating the paper's plaintext-space blow-up.
	CorruptedWeights int
}

// CiphertextBitFlips serializes the model's weights, encrypts them with
// AES-XTS, flips ciphertext bits at the given RBER, decrypts, and writes
// the garbled plaintext back into the model. This is the plaintext-space
// error-correction (PSEC) scenario of §I: ECC over the plaintext words
// sees dense 32-bit errors it cannot correct.
func (in *Injector) CiphertextBitFlips(m *nn.Model, rate float64, key []byte) (CiphertextStats, error) {
	var stats CiphertextStats
	cipher, err := xts.NewCipher(key)
	if err != nil {
		return stats, err
	}
	for li, p := range paramTensors(m) {
		data := p.Params().Data()
		// Pad the serialized weights to the AES block size.
		padded := (len(data)*4 + xts.BlockSize - 1) / xts.BlockSize * xts.BlockSize
		buf := make([]byte, padded)
		for i, v := range data {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		enc, err := xts.NewEncryptedBuffer(cipher, buf, uint64(li))
		if err != nil {
			return stats, fmt.Errorf("faults: encrypt layer %d: %w", li, err)
		}
		flips := in.forEachEvent(len(buf)*8, rate, func(bit int) {
			// Error already range-checked by construction.
			if err := enc.FlipCiphertextBit(bit); err != nil {
				panic(err)
			}
		})
		stats.CiphertextFlips += flips
		if flips == 0 {
			continue
		}
		pt, err := enc.Decrypt()
		if err != nil {
			return stats, fmt.Errorf("faults: decrypt layer %d: %w", li, err)
		}
		for i := range data {
			v := math.Float32frombits(binary.LittleEndian.Uint32(pt[4*i:]))
			if v != data[i] {
				stats.CorruptedWeights++
				data[i] = v
			}
		}
	}
	return stats, nil
}

// FlipExactBits flips exactly n distinct randomly chosen bits across the
// model's parameters; used by the recovery-time experiment (Figure 11)
// where the x-axis is an exact error count.
func (in *Injector) FlipExactBits(m *nn.Model, n int) int {
	params := paramTensors(m)
	totalBits := 0
	for _, p := range params {
		totalBits += p.ParamCount() * 32
	}
	if totalBits == 0 || n <= 0 {
		return 0
	}
	if n > totalBits {
		n = totalBits
	}
	seen := make(map[int]struct{}, n)
	flipped := 0
	for flipped < n {
		idx := in.stream.Intn(totalBits)
		if _, dup := seen[idx]; dup {
			continue
		}
		seen[idx] = struct{}{}
		rem := idx
		for _, p := range params {
			bits := p.ParamCount() * 32
			if rem < bits {
				data := p.Params().Data()
				w := rem / 32
				b := uint(rem % 32)
				data[w] = math.Float32frombits(math.Float32bits(data[w]) ^ (1 << b))
				break
			}
			rem -= bits
		}
		flipped++
	}
	return flipped
}
