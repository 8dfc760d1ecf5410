package sparse

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadMatrixMarket parses a Matrix Market "coordinate real" file (general or
// symmetric) into a modified-CRS matrix. Pattern matrices get unit values.
// This is the ingestion path for real SuiteSparse files when they are
// available; the harness otherwise falls back to the synthetic stand-ins.
// Malformed input is an error, never a panic: a size line below 1x1 or with
// no entries, more rows than the entries can fill, a non-finite value.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("sparse/mm: empty input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("sparse/mm: missing MatrixMarket header")
	}
	format, field, symmetry := header[2], header[3], header[4]
	if format != "coordinate" {
		return nil, fmt.Errorf("sparse/mm: unsupported format %q (only coordinate)", format)
	}
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("sparse/mm: unsupported field %q", field)
	}
	symmetric := false
	switch symmetry {
	case "general":
	case "symmetric":
		symmetric = true
	default:
		return nil, fmt.Errorf("sparse/mm: unsupported symmetry %q", symmetry)
	}

	// Skip comments, read the size line.
	var n, cols, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &n, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("sparse/mm: bad size line %q: %v", line, err)
		}
		break
	}
	if n != cols {
		return nil, fmt.Errorf("sparse/mm: matrix is %dx%d, need square", n, cols)
	}
	if n < 1 || nnz < 1 {
		return nil, fmt.Errorf("sparse/mm: missing or empty size line (%d rows, %d entries)", n, nnz)
	}
	if n-nnz > nnz { // n > 2·nnz without overflow
		return nil, fmt.Errorf("sparse/mm: %d entries cannot fill %d rows: the matrix has an empty row", nnz, n)
	}
	// The entries are collected before any n-sized storage is allocated, so
	// memory is bounded by the input (n <= 2·nnz once nnz lines were read),
	// not by what the size line claims.
	type entry struct {
		i, j int
		v    float64
	}
	var entries []entry
	for len(entries) < nnz && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("sparse/mm: bad entry line %q", line)
		}
		i, err1 := strconv.Atoi(f[0])
		j, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("sparse/mm: bad indices in %q", line)
		}
		v := 1.0
		if field != "pattern" {
			if len(f) < 3 {
				return nil, fmt.Errorf("sparse/mm: missing value in %q", line)
			}
			var err error
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("sparse/mm: bad value in %q: %v", line, err)
			}
		}
		if i < 1 || i > n || j < 1 || j > n {
			return nil, fmt.Errorf("sparse/mm: entry (%d,%d) out of range", i, j)
		}
		entries = append(entries, entry{i - 1, j - 1, v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(entries) != nnz {
		return nil, fmt.Errorf("sparse/mm: expected %d entries, got %d", nnz, len(entries))
	}
	b := NewBuilder(n)
	for _, e := range entries {
		b.Add(e.i, e.j, e.v)
		if symmetric && e.i != e.j {
			b.Add(e.j, e.i, e.v)
		}
	}
	m, err := b.Build()
	if err != nil {
		return nil, err
	}
	// One check covers a non-finite value and duplicates that sum to one.
	if !allFinite(m.Diag) || !allFinite(m.Vals) {
		return nil, fmt.Errorf("sparse/mm: matrix has a non-finite entry")
	}
	return m, nil
}

func allFinite(vs []float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// WriteMatrixMarket writes the matrix in Matrix Market "coordinate real
// general" format.
func WriteMatrixMarket(w io.Writer, m *Matrix) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real general"); err != nil {
		return err
	}
	nnz := m.NNZ()
	zeros := 0
	for _, d := range m.Diag {
		if d == 0 {
			zeros++
		}
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.N, m.N, nnz-zeros); err != nil {
		return err
	}
	for i := 0; i < m.N; i++ {
		if m.Diag[i] != 0 {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, i+1, m.Diag[i]); err != nil {
				return err
			}
		}
		lo, hi := m.RowRange(i)
		for k := lo; k < hi; k++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, m.Cols[k]+1, m.Vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
