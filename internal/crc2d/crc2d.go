package crc2d

import (
	"fmt"
	"math"
)

// DefaultGroup is the paper's group size: CRCs cover sets of 4
// parameters.
const DefaultGroup = 4

// crcTables[0] is the table for CRC-8 with polynomial x^8+x^2+x+1
// (0x07); crcTables[k] applies it k+1 times. The table is linear over
// GF(2), so four bytes fold as crcTables[3][crc^b0] ^ crcTables[2][b1] ^
// crcTables[1][b2] ^ crcTables[0][b3]: slicing-by-4, one float32 per
// step.
var crcTables = buildTables()

func buildTables() [4][256]uint8 {
	var t [4][256]uint8
	for i := 0; i < 256; i++ {
		crc := uint8(i)
		for b := 0; b < 8; b++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
		t[0][i] = crc
	}
	for k := 1; k < 4; k++ {
		for i := 0; i < 256; i++ {
			t[k][i] = t[0][t[k-1][i]]
		}
	}
	return t
}

// CRC8 computes the CRC-8/0x07 checksum of data.
func CRC8(data []byte) uint8 {
	var crc uint8
	for _, b := range data {
		crc = crcTables[0][crc^b]
	}
	return crc
}

// crcOfValues hashes float32 values by their IEEE-754 bit patterns, so a
// single flipped bit always changes the checksum input. It is CRC8 of
// the values' little-endian bytes, four bytes per table step, with no
// buffer.
func crcOfValues(vals []float32) uint8 {
	return crcOfStrided(vals, 0, 1, len(vals))
}

// crcOfStrided is crcOfValues of the n values vals[start],
// vals[start+stride], …: one column group of a row-major matrix is read
// in place.
func crcOfStrided(vals []float32, start, stride, n int) uint8 {
	var crc uint8
	for i := 0; i < n; i++ {
		b := math.Float32bits(vals[start+i*stride])
		crc = crcTables[3][crc^uint8(b)] ^ crcTables[2][uint8(b>>8)] ^
			crcTables[1][uint8(b>>16)] ^ crcTables[0][uint8(b>>24)]
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
	c.fill(values)
	return c, nil
}

// fill computes every CRC of the code over values.
func (c *Code) fill(values []float32) {
	cgroups := (c.cols + c.group - 1) / c.group
	for r := 0; r < c.rows; r++ {
		for g := 0; g < cgroups; g++ {
			c.rowCRC[r*cgroups+g] = c.rowGroupCRC(values, r, g)
		}
	}
	for g := 0; g*c.group < c.rows; g++ {
		for col := 0; col < c.cols; col++ {
			c.colCRC[g*c.cols+col] = c.colGroupCRC(values, g, col)
		}
	}
}

// rowGroupCRC is the horizontal CRC of row r's column group g.
func (c *Code) rowGroupCRC(values []float32, r, g int) uint8 {
	lo := g * c.group
	hi := min(lo+c.group, c.cols)
	return crcOfValues(values[r*c.cols+lo : r*c.cols+hi])
}

// colGroupCRC is the vertical CRC of column col's row group g.
func (c *Code) colGroupCRC(values []float32, g, col int) uint8 {
	lo := g * c.group
	hi := min(lo+c.group, c.rows)
	return crcOfStrided(values, lo*c.cols+col, c.cols, hi-lo)
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
	cells, _, err := c.LocateWithCode(values)
	return cells, err
}

// LocateWithCode is Locate that also returns the code it recomputed over
// values, a new Code sharing nothing with c.
func (c *Code) LocateWithCode(values []float32) ([]Cell, *Code, error) {
	if len(values) != c.rows*c.cols {
		return nil, nil, fmt.Errorf("crc2d: %d values for %dx%d matrix", len(values), c.rows, c.cols)
	}
	group := c.group
	cgroups := (c.cols + group - 1) / group
	rgroups := (c.rows + group - 1) / group
	fresh := &Code{rows: c.rows, cols: c.cols, group: c.group,
		rowCRC: make([]uint8, len(c.rowCRC)), colCRC: make([]uint8, len(c.colCRC))}
	fresh.fill(values)

	badRow := make([]bool, c.rows*cgroups)
	anyBad := false
	for i, v := range fresh.rowCRC {
		if v != c.rowCRC[i] {
			badRow[i] = true
			anyBad = true
		}
	}
	if !anyBad {
		return nil, fresh, nil
	}
	badCol := make([]bool, rgroups*c.cols)
	for i, v := range fresh.colCRC {
		if v != c.colCRC[i] {
			badCol[i] = true
		}
	}
	// Only the columns of mismatching row groups can hold a suspect;
	// walking them in (row, group) order keeps the cells row-major.
	var cells []Cell
	for i, bad := range badRow {
		if !bad {
			continue
		}
		r, g := i/cgroups, i%cgroups
		cols := badCol[(r/group)*c.cols:][:c.cols]
		for col := g * group; col < min((g+1)*group, c.cols); col++ {
			if cols[col] {
				cells = append(cells, Cell{Row: r, Col: col})
			}
		}
	}
	return cells, fresh, nil
}

// Refresh recomputes, over values, the horizontal and vertical group
// CRCs that hold cell, and leaves every other CRC as it is. Refreshed at
// every cell written since c was computed, c equals Encode of the new
// values.
func (c *Code) Refresh(values []float32, cell Cell) error {
	if len(values) != c.rows*c.cols {
		return fmt.Errorf("crc2d: %d values for %dx%d matrix", len(values), c.rows, c.cols)
	}
	if cell.Row < 0 || cell.Row >= c.rows || cell.Col < 0 || cell.Col >= c.cols {
		return fmt.Errorf("crc2d: cell (%d,%d) outside %dx%d matrix", cell.Row, cell.Col, c.rows, c.cols)
	}
	cgroups := (c.cols + c.group - 1) / c.group
	rg, cg := cell.Row/c.group, cell.Col/c.group
	c.rowCRC[cell.Row*cgroups+cg] = c.rowGroupCRC(values, cell.Row, cg)
	c.colCRC[rg*c.cols+cell.Col] = c.colGroupCRC(values, rg, cell.Col)
	return nil
}
