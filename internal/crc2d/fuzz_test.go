package crc2d

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzCRC2DRoundTrip drives the 2-D CRC through its full lifecycle on
// arbitrary matrices: encode, export/restore (the persistence path),
// verify that a clean matrix is never flagged, and verify that every
// suspect reported for a corrupted matrix is in-bounds and includes the
// corrupted cell's coordinates when the CRCs register the change at
// all. (CRC-8 can collide, so "change detected" cannot be asserted
// unconditionally — but a *located* error may never be out of range.)
func FuzzCRC2DRoundTrip(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(2), uint16(0), uint32(0x3f800000), []byte{1, 2, 3, 4})
	f.Add(uint8(4), uint8(4), uint8(4), uint16(5), uint32(0xdeadbeef), []byte{0xff, 0x00, 0x7f})
	f.Add(uint8(1), uint8(1), uint8(1), uint16(0), uint32(0), []byte{})
	f.Add(uint8(9), uint8(2), uint8(4), uint16(17), uint32(0x7fc00001), []byte{8, 8, 8, 8, 8, 8, 8, 8})
	f.Fuzz(func(t *testing.T, rows, cols, group uint8, corruptIdx uint16, corruptBits uint32, seed []byte) {
		r := int(rows%16) + 1
		c := int(cols%16) + 1
		g := int(group%8) + 1
		values := make([]float32, r*c)
		for i := range values {
			var b [4]byte
			for j := range b {
				if len(seed) > 0 {
					b[j] = seed[(i*4+j)%len(seed)] ^ byte(i)
				}
			}
			v := math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
			values[i] = v // NaN/Inf allowed: CRCs work on raw bits
		}
		code, err := Encode(values, r, c, g)
		if err != nil {
			t.Fatalf("encode %dx%d group %d: %v", r, c, g, err)
		}
		// Persistence round trip must preserve behavior exactly.
		er, ec, eg, rowCRC, colCRC := code.Export()
		restored, err := Restore(er, ec, eg, rowCRC, colCRC)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		// A clean matrix is never flagged, by either copy of the code.
		for _, cd := range []*Code{code, restored} {
			cells, err := cd.Locate(values)
			if err != nil {
				t.Fatalf("locate clean: %v", err)
			}
			if len(cells) != 0 {
				t.Fatalf("clean %dx%d matrix flagged: %+v", r, c, cells)
			}
		}
		// Corrupt one cell; any located suspects must be valid cells, and
		// if the row CRC registered the change the corrupted coordinates
		// must be among them.
		idx := int(corruptIdx) % len(values)
		orig := values[idx]
		values[idx] = math.Float32frombits(math.Float32bits(orig) ^ (corruptBits | 1))
		bitsChanged := math.Float32bits(values[idx]) != math.Float32bits(orig)
		cells, err := code.Locate(values)
		if err != nil {
			t.Fatalf("locate corrupted: %v", err)
		}
		found := false
		for _, cell := range cells {
			if cell.Row < 0 || cell.Row >= r || cell.Col < 0 || cell.Col >= c {
				t.Fatalf("suspect %+v out of range for %dx%d", cell, r, c)
			}
			if cell.Row == idx/c && cell.Col == idx%c {
				found = true
			}
		}
		if bitsChanged && len(cells) > 0 && !found {
			t.Fatalf("corrupted cell (%d,%d) not among suspects %+v", idx/c, idx%c, cells)
		}
		// The code LocateWithCode recomputes, and the stored code
		// refreshed at the corrupted cell alone, are both Encode's.
		want, err := Encode(values, r, c, g)
		if err != nil {
			t.Fatal(err)
		}
		_, fresh, err := code.LocateWithCode(values)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Refresh(values, Cell{Row: idx / c, Col: idx % c}); err != nil {
			t.Fatal(err)
		}
		for _, cd := range []*Code{fresh, restored} {
			if !sameCode(cd, want) {
				t.Fatalf("%dx%d group %d: code after corrupting (%d,%d) differs from Encode", r, c, g, idx/c, idx%c)
			}
		}
	})
}
