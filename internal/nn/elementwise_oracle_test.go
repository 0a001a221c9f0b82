package nn

import (
	"fmt"
	"math"
	"testing"

	"milr/internal/prng"
	"milr/internal/tensor"
)

// The elementwise layers' serving loops, kept as oracles: the branching
// ReLU and the per-element max pool the package shipped before the
// branch-free mask and the channel-contiguous reduction. Both rewrites
// must reproduce them bit for bit, since a fault experiment's outcome
// can hinge on one NaN or one −0.

// oracleReLU is the branching ReLU: x[i] = 0 where x[i] < 0.
func oracleReLU(x []float32) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// oracleReduce is the per-element max pool: for each output element,
// the first strictly greatest value of its window in (di, dj) order,
// −Inf and argmax −1 if none beats −Inf.
func oracleReduce(od, id []float32, h, w, z, k int, argmax []int) {
	oh, ow := h/k, w/k
	for i := 0; i < oh; i++ {
		for j := 0; j < ow; j++ {
			for c := 0; c < z; c++ {
				oidx := (i*ow+j)*z + c
				best := float32(math.Inf(-1))
				bestIdx := -1
				for di := 0; di < k; di++ {
					for dj := 0; dj < k; dj++ {
						iidx := ((i*k+di)*w+(j*k+dj))*z + c
						if id[iidx] > best {
							best, bestIdx = id[iidx], iidx
						}
					}
				}
				od[oidx] = best
				if argmax != nil {
					argmax[oidx] = bestIdx
				}
			}
		}
	}
}

// TestReLUMatchesBranchLoop pins the branch-free ReLU to the branching
// loop on every class of float32 bits: ±0, ±Inf, quiet and signalling
// NaNs of both signs and several payloads, ±subnormals, the smallest
// normals, ±MaxFloat32, ±1, and a seeded sweep of random bit patterns.
func TestReLUMatchesBranchLoop(t *testing.T) {
	bits := []uint32{
		0x00000000, 0x80000000, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00000, 0x7fc00123, 0xffc0beef, 0x7fffffff, 0xffffffff, // quiet NaNs
		0x7f800001, 0xff800001, 0x7fbfffff, 0xffbfffff, // signalling NaNs
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // ±subnormals
		0x00800000, 0x80800000, // ±smallest normal
		0x7f7fffff, 0xff7fffff, // ±MaxFloat32
		0x3f800000, 0xbf800000, // ±1
	}
	st := prng.New(47)
	for len(bits) < 1<<16 {
		bits = append(bits, uint32(st.Uint64()))
	}
	want := make([]float32, len(bits))
	for i, b := range bits {
		want[i] = math.Float32frombits(b)
	}
	got := append([]float32(nil), want...)
	oracleReLU(want)
	NewReLU().forwardInPlace(got)
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("input %#08x: ReLU gives %#08x, the branching loop %#08x", bits[i], g, w)
		}
	}
}

// TestPoolMatchesElementLoop pins the channel-contiguous max pool, on
// its serving path (no argmax) and its training path, to the
// per-element loop: values and argmax equal, bit for bit. Inputs hold
// all-NaN and all-−Inf windows, windows mixing the two, NaN before a
// value, ±0 ties and repeated maxima (the first one wins), over square
// and non-square maps, windows 2 and 3, and one or several channels.
func TestPoolMatchesElementLoop(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	pick := []float32{nan, -inf, inf, 0, negZero, 1, -1, 0.5}
	zeros := []float32{nan, -inf, 0, negZero}
	for ci, c := range []struct{ h, w, z, k int }{
		{4, 4, 1, 2},
		{6, 4, 3, 2},
		{6, 9, 5, 3},
		{2, 8, 16, 2},
	} {
		p, err := NewMaxPool2D(c.k)
		if err != nil {
			t.Fatal(err)
		}
		st := prng.New(uint64(ci) + 1)
		for trial := 0; trial < 8; trial++ {
			in := make([]float32, c.h*c.w*c.z)
			for i := range in {
				switch trial % 4 {
				case 0: // random values
					in[i] = st.Uniform(-1, 1)
				case 1: // specials, ties and repeats
					in[i] = pick[st.Intn(len(pick))]
				case 2: // only NaN and −Inf: windows no value beats
					in[i] = pick[st.Intn(2)]
				default: // ±0 against NaN and −Inf
					in[i] = zeros[st.Intn(len(zeros))]
				}
			}
			if trial == 0 { // one whole window of NaN, one of −Inf
				for di := 0; di < c.k; di++ {
					for dj := 0; dj < c.k; dj++ {
						in[(di*c.w+dj)*c.z] = nan
						in[(di*c.w+c.k+dj)*c.z] = -inf
					}
				}
			}
			n := (c.h / c.k) * (c.w / c.k) * c.z
			want, wantArg := make([]float32, n), make([]int, n)
			oracleReduce(want, in, c.h, c.w, c.z, c.k, wantArg)
			serve, train, arg := make([]float32, n), make([]float32, n), make([]int, n)
			for i := range serve {
				serve[i], train[i], arg[i] = nan, nan, 7 // must be overwritten
			}
			p.reduce(serve, in, c.h, c.w, c.z, nil)
			p.reduce(train, in, c.h, c.w, c.z, arg)
			name := fmt.Sprintf("(%d,%d,%d) window %d trial %d", c.h, c.w, c.z, c.k, trial)
			for i := range want {
				w := math.Float32bits(want[i])
				if g := math.Float32bits(serve[i]); g != w {
					t.Fatalf("%s: serving output %d is %#08x, the element loop's %#08x", name, i, g, w)
				}
				if g := math.Float32bits(train[i]); g != w {
					t.Fatalf("%s: training output %d is %#08x, the element loop's %#08x", name, i, g, w)
				}
				if arg[i] != wantArg[i] {
					t.Fatalf("%s: argmax %d is %d, the element loop's %d", name, i, arg[i], wantArg[i])
				}
			}
		}
	}
}

// TestPoolBackwardSkipsEmptyWindows trains through windows in which no
// value beats −Inf (all NaN, all −Inf): ForwardTrain keeps −Inf there
// and Backward passes those windows no gradient instead of indexing
// with their argmax of −1, while every other window routes its
// gradient to its maximum.
func TestPoolBackwardSkipsEmptyWindows(t *testing.T) {
	p, err := NewMaxPool2D(2)
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	in := tensor.MustFromSlice([]float32{
		nan, nan, -inf, -inf, 1, 2,
		nan, nan, -inf, -inf, 4, 3,
	}, 2, 6, 1)
	out, cache, err := p.ForwardTrain(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []float32{-inf, -inf, 4} {
		if g := out.Data()[i]; g != w {
			t.Fatalf("output %d = %v, want %v", i, g, w)
		}
	}
	din, err := p.Backward(cache, tensor.MustFromSlice([]float32{5, 6, 7}, 1, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0}
	for i, w := range want {
		if g := din.Data()[i]; g != w {
			t.Fatalf("input gradient %d = %v, want %v (all: %v)", i, g, w, din.Data())
		}
	}
}
