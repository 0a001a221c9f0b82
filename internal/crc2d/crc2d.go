package crc2d

import (
	"fmt"
	"math"
)

// DefaultGroup is the paper's group size: CRCs cover sets of 4
// parameters.
const DefaultGroup = 4

// crcTable is the table for CRC-8 with polynomial x^8+x^2+x+1 (0x07).
var crcTable = buildTable()

func buildTable() [256]uint8 {
	var t [256]uint8
	for i := 0; i < 256; i++ {
		crc := uint8(i)
		for b := 0; b < 8; b++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}

// CRC8 computes the CRC-8/0x07 checksum of data.
func CRC8(data []byte) uint8 {
	var crc uint8
	for _, b := range data {
		crc = crcTable[crc^b]
	}
	return crc
}

// crcOfValues hashes float32 values by their IEEE-754 bit patterns, so a
// single flipped bit always changes the checksum input. It is CRC8 of
// the values' little-endian bytes, fed through the table as they are
// read, with no buffer.
func crcOfValues(vals []float32) uint8 {
	var crc uint8
	for _, v := range vals {
		b := math.Float32bits(v)
		crc = crcTable[crc^uint8(b)]
		crc = crcTable[crc^uint8(b>>8)]
		crc = crcTable[crc^uint8(b>>16)]
		crc = crcTable[crc^uint8(b>>24)]
	}
	return crc
}

// Cell identifies one matrix entry.
type Cell struct {
	Row, Col int
}

// Code holds the horizontal and vertical CRCs of one (rows × cols)
// parameter matrix.
type Code struct {
	rows, cols, group int
	rowCRC            []uint8 // [row][colGroup] flattened
	colCRC            []uint8 // [rowGroup][col] flattened
}

// Encode computes the 2-D code of a row-major matrix.
func Encode(values []float32, rows, cols int, group int) (*Code, error) {
	if rows <= 0 || cols <= 0 || group <= 0 {
		return nil, fmt.Errorf("crc2d: invalid geometry rows=%d cols=%d group=%d", rows, cols, group)
	}
	if len(values) != rows*cols {
		return nil, fmt.Errorf("crc2d: %d values for %dx%d matrix", len(values), rows, cols)
	}
	c := &Code{rows: rows, cols: cols, group: group}
	cgroups := (cols + group - 1) / group
	rgroups := (rows + group - 1) / group
	c.rowCRC = make([]uint8, rows*cgroups)
	c.colCRC = make([]uint8, rgroups*cols)
	c.fill(values, c.rowCRC, c.colCRC)
	return c, nil
}

func (c *Code) fill(values []float32, rowCRC, colCRC []uint8) {
	group := c.group
	cgroups := (c.cols + group - 1) / group
	// Horizontal: along each row, groups of `group` columns.
	for r := 0; r < c.rows; r++ {
		for g := 0; g < cgroups; g++ {
			lo := g * group
			hi := lo + group
			if hi > c.cols {
				hi = c.cols
			}
			rowCRC[r*cgroups+g] = crcOfValues(values[r*c.cols+lo : r*c.cols+hi])
		}
	}
	// Vertical: along each column, groups of `group` rows. A group never
	// holds more than every row (a persisted group may be huge).
	buf := make([]float32, min(group, c.rows))
	for col := 0; col < c.cols; col++ {
		for g := 0; g*group < c.rows; g++ {
			lo := g * group
			hi := lo + group
			if hi > c.rows {
				hi = c.rows
			}
			n := 0
			for r := lo; r < hi; r++ {
				buf[n] = values[r*c.cols+col]
				n++
			}
			colCRC[g*c.cols+col] = crcOfValues(buf[:n])
		}
	}
}

// Export returns the code's geometry and raw CRC bytes for persistence.
func (c *Code) Export() (rows, cols, group int, rowCRC, colCRC []uint8) {
	return c.rows, c.cols, c.group, c.rowCRC, c.colCRC
}

// Restore rebuilds a Code from persisted geometry and CRC bytes.
func Restore(rows, cols, group int, rowCRC, colCRC []uint8) (*Code, error) {
	if rows <= 0 || cols <= 0 || group <= 0 {
		return nil, fmt.Errorf("crc2d: invalid geometry rows=%d cols=%d group=%d", rows, cols, group)
	}
	cgroups := (cols + group - 1) / group
	rgroups := (rows + group - 1) / group
	if len(rowCRC) != rows*cgroups || len(colCRC) != rgroups*cols {
		return nil, fmt.Errorf("crc2d: CRC lengths %d/%d do not match geometry %dx%d group %d",
			len(rowCRC), len(colCRC), rows, cols, group)
	}
	return &Code{
		rows: rows, cols: cols, group: group,
		rowCRC: append([]uint8(nil), rowCRC...),
		colCRC: append([]uint8(nil), colCRC...),
	}, nil
}

// OverheadBytes returns the storage cost of the code (1 byte per CRC),
// the quantity MILR's storage accounting charges for partial-recoverable
// conv layers.
func (c *Code) OverheadBytes() int {
	return len(c.rowCRC) + len(c.colCRC)
}

// Locate recomputes the code over the (possibly corrupted) values and
// returns the suspect cells: entries whose horizontal and vertical group
// CRCs both mismatch. A nil slice means the matrix matches its code.
func (c *Code) Locate(values []float32) ([]Cell, error) {
	if len(values) != c.rows*c.cols {
		return nil, fmt.Errorf("crc2d: %d values for %dx%d matrix", len(values), c.rows, c.cols)
	}
	group := c.group
	cgroups := (c.cols + group - 1) / group
	rgroups := (c.rows + group - 1) / group
	rowCRC := make([]uint8, len(c.rowCRC))
	colCRC := make([]uint8, len(c.colCRC))
	tmp := &Code{rows: c.rows, cols: c.cols, group: c.group}
	tmp.fill(values, rowCRC, colCRC)

	badRow := make([]bool, c.rows*cgroups)
	anyBad := false
	for i := range rowCRC {
		if rowCRC[i] != c.rowCRC[i] {
			badRow[i] = true
			anyBad = true
		}
	}
	if !anyBad {
		return nil, nil
	}
	badCol := make([]bool, rgroups*c.cols)
	for i := range colCRC {
		if colCRC[i] != c.colCRC[i] {
			badCol[i] = true
		}
	}
	var cells []Cell
	for r := 0; r < c.rows; r++ {
		for col := 0; col < c.cols; col++ {
			if badRow[r*cgroups+col/group] && badCol[(r/group)*c.cols+col] {
				cells = append(cells, Cell{Row: r, Col: col})
			}
		}
	}
	return cells, nil
}
