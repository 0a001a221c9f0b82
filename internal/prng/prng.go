package prng

import (
	"math"

	"milr/internal/tensor"
)

// Stream is a deterministic xoshiro256** generator.
type Stream struct {
	s [4]uint64
}

// New creates a stream from a 64-bit seed. The four lanes are initialized
// with SplitMix64, the reference seeding procedure for xoshiro.
func New(seed uint64) *Stream {
	st := &Stream{}
	x := seed
	for i := 0; i < 4; i++ {
		// SplitMix64 step.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		st.s[i] = z ^ (z >> 31)
	}
	// Avoid the all-zero state (impossible via SplitMix64 of any seed,
	// but cheap to guarantee).
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 1
	}
	return st
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 bits of the stream.
func (st *Stream) Uint64() uint64 {
	result := rotl(st.s[1]*5, 7) * 9
	t := st.s[1] << 17
	st.s[2] ^= st.s[0]
	st.s[3] ^= st.s[1]
	st.s[1] ^= st.s[2]
	st.s[0] ^= st.s[3]
	st.s[2] ^= t
	st.s[3] = rotl(st.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0,1) with 53 bits of precision.
func (st *Stream) Float64() float64 {
	return float64(st.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform value in [0,1).
func (st *Stream) Float32() float32 {
	return float32(st.Uint64()>>40) / (1 << 24)
}

// Uniform returns a uniform value in [lo, hi).
func (st *Stream) Uniform(lo, hi float32) float32 {
	return lo + (hi-lo)*st.Float32()
}

// Norm returns a standard-normal sample via the Box–Muller transform.
func (st *Stream) Norm() float64 {
	// Draw u1 in (0,1] so the log is finite.
	u1 := 1.0 - st.Float64()
	u2 := st.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Poisson returns a Poisson(lambda) sample — the open-loop arrival and
// fault-event counts of the soak harness. Small rates use Knuth's
// inversion by sequential search (exact); large rates fall back to a
// normal approximation clamped at zero, adequate for load generation.
// Non-positive rates return 0.
func (st *Stream) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		k := int(math.Round(lambda + math.Sqrt(lambda)*st.Norm()))
		if k < 0 {
			k = 0
		}
		return k
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= st.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (st *Stream) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	return int(st.Uint64() % uint64(n))
}

// Perm returns a pseudo-random permutation of [0, n).
func (st *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := st.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Tensor fills a fresh tensor of the given shape with uniform values in
// [-1, 1). This is MILR's "seeded pseudo-random tensor generator"
// (Figures 2 and 3): the detection rows, dummy rows/columns, and dummy
// filters are all drawn this way so only the seed needs storing.
func (st *Stream) Tensor(shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = st.Uniform(-1, 1)
	}
	return t
}

// TensorFor is a convenience that creates a single-use stream for (seed,
// tag) and draws one tensor from it. Distinct tags give independent
// streams from one master seed, so each layer's dummy data has its own
// reproducible stream without storing per-layer seeds.
func TensorFor(seed uint64, tag uint64, shape ...int) *tensor.Tensor {
	return New(seed ^ Mix(tag)).Tensor(shape...)
}

// Mix decorrelates tag values before they are XOR-ed into a seed. Stored
// checkpoints derive from its streams, so its constants never change.
func Mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
