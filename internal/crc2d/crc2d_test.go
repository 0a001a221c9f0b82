package crc2d

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"milr/internal/prng"
)

func randValues(s *prng.Stream, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = s.Uniform(-1, 1)
	}
	return out
}

func TestCRC8KnownProperties(t *testing.T) {
	if CRC8(nil) != 0 {
		t.Error("CRC8(empty) != 0")
	}
	a := CRC8([]byte{1, 2, 3})
	b := CRC8([]byte{1, 2, 4})
	if a == b {
		t.Error("CRC8 collision on adjacent inputs")
	}
	// "123456789" check value for CRC-8/0x07 (SMBus CRC-8) is 0xF4.
	if got := CRC8([]byte("123456789")); got != 0xf4 {
		t.Errorf("CRC8 check value %#x, want 0xf4", got)
	}
}

// TestCRCOfValuesIsCRC8OfBytes pins the buffer-free value hash, read
// contiguously or at a stride, to CRC8 of the values' little-endian
// bytes, so the stored codes (saved blobs included) keep every bit:
// random values of every length 0–9, and NaNs with distinct payloads,
// ±0, ±Inf and subnormals.
func TestCRCOfValuesIsCRC8OfBytes(t *testing.T) {
	specials := []float32{
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffbfffff),
		math.Float32frombits(0x7f800123), 0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(1),
		math.Float32frombits(0x807fffff),
	}
	s := prng.New(8)
	for trial := 0; trial < 200; trial++ {
		vals := make([]float32, trial%10)
		for i := range vals {
			if s.Intn(3) == 0 {
				vals[i] = specials[s.Intn(len(specials))]
			} else {
				vals[i] = math.Float32frombits(uint32(s.Uint64()))
			}
		}
		buf := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if got, want := crcOfValues(vals), CRC8(buf); got != want {
			t.Fatalf("values %v: crcOfValues %#x, CRC8 of their bytes %#x", vals, got, want)
		}
		// The same values read in place at stride 3, as a column group.
		strided := make([]float32, 3*len(vals)+2)
		for i, v := range vals {
			strided[2+3*i] = v
		}
		if got, want := crcOfStrided(strided, 2, 3, len(vals)), CRC8(buf); got != want {
			t.Fatalf("values %v: crcOfStrided %#x, CRC8 of their bytes %#x", vals, got, want)
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := Encode(make([]float32, 5), 2, 2, 4); err == nil {
		t.Error("size mismatch must fail")
	}
	if _, err := Encode(make([]float32, 4), 2, 2, 0); err == nil {
		t.Error("zero group must fail")
	}
}

func TestCleanMatrixLocatesNothing(t *testing.T) {
	s := prng.New(1)
	vals := randValues(s, 16*20)
	code, err := Encode(vals, 16, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := code.Locate(vals)
	if err != nil {
		t.Fatal(err)
	}
	if cells != nil {
		t.Errorf("clean matrix produced suspects: %v", cells)
	}
}

// A single bit flip anywhere must be localized to exactly its cell.
func TestSingleErrorExactLocalization(t *testing.T) {
	s := prng.New(2)
	const rows, cols = 12, 16
	vals := randValues(s, rows*cols)
	code, err := Encode(vals, rows, cols, 4)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		r, c := s.Intn(rows), s.Intn(cols)
		idx := r*cols + c
		orig := vals[idx]
		vals[idx] = math.Float32frombits(math.Float32bits(orig) ^ (1 << uint(s.Intn(32))))
		if vals[idx] == orig {
			continue // flipping may produce same value via NaN patterns? keep safe
		}
		cells, err := code.Locate(vals)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != 1 || cells[0] != (Cell{Row: r, Col: c}) {
			t.Fatalf("trial %d: error at (%d,%d), located %v", trial, r, c, cells)
		}
		vals[idx] = orig
	}
}

// Scattered errors: all true errors must be covered by the suspect set
// (no false negatives). False positives are permitted but counted.
func TestScatteredErrorsCovered(t *testing.T) {
	s := prng.New(3)
	const rows, cols = 32, 32
	vals := randValues(s, rows*cols)
	code, err := Encode(vals, rows, cols, 4)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[Cell]bool{}
	for i := 0; i < 10; i++ {
		r, c := s.Intn(rows), s.Intn(cols)
		vals[r*cols+c] += 1.5
		truth[Cell{Row: r, Col: c}] = true
	}
	cells, err := code.Locate(vals)
	if err != nil {
		t.Fatal(err)
	}
	got := map[Cell]bool{}
	for _, c := range cells {
		got[c] = true
	}
	for c := range truth {
		if !got[c] {
			t.Errorf("true error %v not localized", c)
		}
	}
}

// Measured false-positive behaviour: with k scattered errors the suspect
// set is at most k² (row/col group intersections), usually far less. The
// paper reports "a low false positive rate".
func TestFalsePositiveRateBounded(t *testing.T) {
	s := prng.New(4)
	const rows, cols, k = 64, 64, 8
	var totalFP int
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		vals := randValues(s, rows*cols)
		code, err := Encode(vals, rows, cols, 4)
		if err != nil {
			t.Fatal(err)
		}
		truth := map[Cell]bool{}
		for i := 0; i < k; i++ {
			r, c := s.Intn(rows), s.Intn(cols)
			vals[r*cols+c] -= 2
			truth[Cell{Row: r, Col: c}] = true
		}
		cells, err := code.Locate(vals)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if !truth[c] {
				totalFP++
			}
		}
	}
	avgFP := float64(totalFP) / trials
	if avgFP > k*k {
		t.Errorf("average false positives %v exceeds k²=%d", avgFP, k*k)
	}
}

func TestNonMultipleGroupGeometry(t *testing.T) {
	// rows and cols not divisible by the group size.
	s := prng.New(5)
	vals := randValues(s, 7*9)
	code, err := Encode(vals, 7, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	vals[6*9+8] += 3 // bottom-right corner cell, in the ragged groups
	cells, err := code.Locate(vals)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0] != (Cell{Row: 6, Col: 8}) {
		t.Errorf("ragged-corner error located as %v", cells)
	}
}

func sameCode(a, b *Code) bool {
	ar, ac, ag, arow, acol := a.Export()
	br, bc, bg, brow, bcol := b.Export()
	return ar == br && ac == bc && ag == bg && bytes.Equal(arow, brow) && bytes.Equal(acol, bcol)
}

// LocateWithCode's code is Encode of the values it was given, and does
// not alias the stored code; Refresh at the written cells brings a code
// to Encode of the new values, ragged edge groups included, and rejects
// a cell outside the matrix.
func TestLocateWithCodeAndRefreshMatchEncode(t *testing.T) {
	s := prng.New(6)
	const rows, cols = 11, 14
	vals := randValues(s, rows*cols)
	code, err := Encode(vals, rows, cols, 4)
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := Encode(vals, rows, cols, 4)
	written := []Cell{{0, 0}, {10, 13}, {5, 7}, {5, 8}, {9, 2}}
	for _, cell := range written {
		vals[cell.Row*cols+cell.Col] += 0.5
	}
	want, err := Encode(vals, rows, cols, 4)
	if err != nil {
		t.Fatal(err)
	}
	cells, fresh, err := code.LocateWithCode(vals)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) < len(written) {
		t.Fatalf("located %v, want at least the %d written cells", cells, len(written))
	}
	if !sameCode(fresh, want) {
		t.Error("LocateWithCode's code differs from Encode of the same values")
	}
	if !sameCode(code, stored) {
		t.Error("LocateWithCode modified the stored code")
	}
	for _, cell := range written {
		if err := code.Refresh(vals, cell); err != nil {
			t.Fatal(err)
		}
	}
	if !sameCode(code, want) {
		t.Error("Refresh at the written cells differs from Encode of the new values")
	}
	for _, cell := range []Cell{{Row: rows, Col: 0}, {Row: 0, Col: -1}} {
		if err := code.Refresh(vals, cell); err == nil {
			t.Errorf("Refresh of cell %v outside the matrix must fail", cell)
		}
	}
	if err := code.Refresh(vals[1:], Cell{}); err == nil {
		t.Error("Refresh with the wrong value count must fail")
	}
}

func TestOverheadBytes(t *testing.T) {
	code, err := Encode(make([]float32, 16*16), 16, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 16 rows × 4 col-groups + 4 row-groups × 16 cols = 128 CRCs.
	if got := code.OverheadBytes(); got != 128 {
		t.Errorf("overhead %d, want 128", got)
	}
}

// Property: localization never invents suspects in untouched rows AND
// columns.
func TestSuspectsShareRowOrColumnWithErrors(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		s := prng.New(seed)
		const rows, cols = 16, 16
		vals := randValues(s, rows*cols)
		code, err := Encode(vals, rows, cols, 4)
		if err != nil {
			return false
		}
		r, c := s.Intn(rows), s.Intn(cols)
		vals[r*cols+c] += 1
		cells, err := code.Locate(vals)
		if err != nil {
			return false
		}
		for _, cell := range cells {
			if cell.Row != r && cell.Col != c {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}
