// Package sparse implements the sparse-matrix substrate of the framework:
// the paper's modified Compressed Row Storage format (off-diagonal entries in
// CRS arrays plus a separate dense diagonal array), a COO assembly builder,
// Matrix Market I/O, permutation, validation helpers, and the synthetic
// workload generators used by the evaluation (Poisson stencils and
// SuiteSparse-like stand-ins).
//
// Host-side master matrices are stored in float64; device (simulated IPU)
// copies are downcast to float32 when tensors are created, mirroring how the
// real framework ingests double-precision Matrix Market files onto
// single-precision hardware.
package sparse

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Matrix is a square sparse matrix in the paper's modified CRS format:
//
//   - Diag[i] holds the diagonal entry of row i in a dense array. Storing it
//     separately avoids recording its column index (smaller footprint) and
//     gives solvers like Gauss-Seidel direct access to each row's pivot.
//   - RowPtr/Cols/Vals hold only the off-diagonal entries in CRS form:
//     row i's off-diagonals are Vals[RowPtr[i]:RowPtr[i+1]] with column
//     indices Cols[RowPtr[i]:RowPtr[i+1]], sorted by column.
type Matrix struct {
	N      int
	Diag   []float64
	RowPtr []int
	Cols   []int
	Vals   []float64
}

// NNZ returns the number of stored entries including the diagonal.
func (m *Matrix) NNZ() int { return m.N + len(m.Vals) }

// OffDiagNNZ returns the number of stored off-diagonal entries.
func (m *Matrix) OffDiagNNZ() int { return len(m.Vals) }

// RowRange returns the half-open range of off-diagonal entry indices of row i.
func (m *Matrix) RowRange(i int) (lo, hi int) { return m.RowPtr[i], m.RowPtr[i+1] }

// At returns the entry (i, j), or 0 if it is not stored.
func (m *Matrix) At(i, j int) float64 {
	if i == j {
		return m.Diag[i]
	}
	lo, hi := m.RowRange(i)
	k := lo + sort.SearchInts(m.Cols[lo:hi], j)
	if k < hi && m.Cols[k] == j {
		return m.Vals[k]
	}
	return 0
}

// Validate checks structural invariants.
func (m *Matrix) Validate() error {
	if m.N < 0 {
		return errors.New("sparse: negative dimension")
	}
	if len(m.Diag) != m.N {
		return fmt.Errorf("sparse: len(Diag)=%d, want %d", len(m.Diag), m.N)
	}
	if len(m.RowPtr) != m.N+1 {
		return fmt.Errorf("sparse: len(RowPtr)=%d, want %d", len(m.RowPtr), m.N+1)
	}
	if len(m.Cols) != len(m.Vals) {
		return fmt.Errorf("sparse: len(Cols)=%d != len(Vals)=%d", len(m.Cols), len(m.Vals))
	}
	if m.RowPtr[0] != 0 || m.RowPtr[m.N] != len(m.Vals) {
		return errors.New("sparse: RowPtr endpoints wrong")
	}
	for i := 0; i < m.N; i++ {
		lo, hi := m.RowRange(i)
		if lo > hi {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		prev := -1
		for k := lo; k < hi; k++ {
			j := m.Cols[k]
			if j < 0 || j >= m.N {
				return fmt.Errorf("sparse: column %d out of range in row %d", j, i)
			}
			if j == i {
				return fmt.Errorf("sparse: diagonal entry stored off-diagonally in row %d", i)
			}
			if j <= prev {
				return fmt.Errorf("sparse: columns not strictly increasing in row %d", i)
			}
			prev = j
		}
	}
	return nil
}

// HasZeroDiagonal reports whether any diagonal entry is exactly zero.
// Matrices from FEM/FVM discretizations normally have non-zero diagonals;
// solvers that divide by the pivot require this.
func (m *Matrix) HasZeroDiagonal() bool {
	for _, d := range m.Diag {
		if d == 0 {
			return true
		}
	}
	return false
}

// IsSymmetric reports whether the matrix is numerically symmetric within tol
// (relative to the larger magnitude of the entry pair).
func (m *Matrix) IsSymmetric(tol float64) bool {
	for i := 0; i < m.N; i++ {
		lo, hi := m.RowRange(i)
		for k := lo; k < hi; k++ {
			j := m.Cols[k]
			a, b := m.Vals[k], m.At(j, i)
			mag := math.Max(math.Abs(a), math.Abs(b))
			if mag > 0 && math.Abs(a-b) > tol*mag {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{
		N:      m.N,
		Diag:   append([]float64(nil), m.Diag...),
		RowPtr: append([]int(nil), m.RowPtr...),
		Cols:   append([]int(nil), m.Cols...),
		Vals:   append([]float64(nil), m.Vals...),
	}
	return c
}

// MulVec computes y = A*x in float64 (host-side reference product).
func (m *Matrix) MulVec(x, y []float64) {
	if len(x) != m.N || len(y) != m.N {
		panic("sparse: dimension mismatch in MulVec")
	}
	for i := 0; i < m.N; i++ {
		y[i] = m.RowDot(i, x)
	}
}

// RowDot returns entry i of A*x, summed in MulVec's order (the diagonal, then
// the stored off-diagonals), for callers that consume the product one entry at
// a time and so need no output vector.
func (m *Matrix) RowDot(i int, x []float64) float64 {
	s := m.Diag[i] * x[i]
	lo, hi := m.RowRange(i)
	for k := lo; k < hi; k++ {
		s += m.Vals[k] * x[m.Cols[k]]
	}
	return s
}

// Permute returns P*A*Pᵀ where the permutation maps old index i to new index
// perm[i]. Row and column indices are relabeled; values are unchanged.
func (m *Matrix) Permute(perm []int) (*Matrix, error) {
	if len(perm) != m.N {
		return nil, fmt.Errorf("sparse: permutation length %d, want %d", len(perm), m.N)
	}
	inv := make([]int, m.N)
	seen := make([]bool, m.N)
	for old, nw := range perm {
		if nw < 0 || nw >= m.N || seen[nw] {
			return nil, fmt.Errorf("sparse: invalid permutation at %d -> %d", old, nw)
		}
		seen[nw] = true
		inv[nw] = old
	}
	b := NewBuilder(m.N)
	for nw := 0; nw < m.N; nw++ {
		old := inv[nw]
		b.Set(nw, nw, m.Diag[old])
		lo, hi := m.RowRange(old)
		for k := lo; k < hi; k++ {
			b.Set(nw, perm[m.Cols[k]], m.Vals[k])
		}
	}
	return b.Build()
}

// Stats summarizes a matrix for reporting (Table II style).
type Stats struct {
	Rows         int
	NNZ          int
	AvgPerRow    float64
	MaxPerRow    int
	Bandwidth    int // max |i-j| over stored entries
	Symmetric    bool
	DiagDominant bool
}

// ComputeStats gathers matrix statistics.
func (m *Matrix) ComputeStats() Stats {
	s := Stats{Rows: m.N, NNZ: m.NNZ()}
	if m.N > 0 {
		s.AvgPerRow = float64(m.NNZ()) / float64(m.N)
	}
	dom := true
	for i := 0; i < m.N; i++ {
		lo, hi := m.RowRange(i)
		if n := hi - lo + 1; n > s.MaxPerRow {
			s.MaxPerRow = n
		}
		off := 0.0
		for k := lo; k < hi; k++ {
			if d := abs(i - m.Cols[k]); d > s.Bandwidth {
				s.Bandwidth = d
			}
			off += math.Abs(m.Vals[k])
		}
		if math.Abs(m.Diag[i]) < off {
			dom = false
		}
	}
	s.Symmetric = m.IsSymmetric(1e-12)
	s.DiagDominant = dom
	return s
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Builder assembles a matrix from (row, col, value) triplets. Duplicate
// entries are accumulated, as is conventional for FEM assembly.
type Builder struct {
	n    int
	rows []map[int]float64
}

// NewBuilder creates a builder for an n x n matrix.
func NewBuilder(n int) *Builder {
	rows := make([]map[int]float64, n)
	return &Builder{n: n, rows: rows}
}

// Add accumulates v into entry (i, j).
func (b *Builder) Add(i, j int, v float64) {
	if b.rows[i] == nil {
		b.rows[i] = make(map[int]float64, 8)
	}
	b.rows[i][j] += v
}

// Set overwrites entry (i, j) with v.
func (b *Builder) Set(i, j int, v float64) {
	if b.rows[i] == nil {
		b.rows[i] = make(map[int]float64, 8)
	}
	b.rows[i][j] = v
}

// Build produces the modified-CRS matrix. Explicit zeros off the diagonal are
// dropped; missing diagonal entries are stored as 0 (callers that need
// non-singular pivots should check HasZeroDiagonal).
func (b *Builder) Build() (*Matrix, error) {
	m := &Matrix{
		N:      b.n,
		Diag:   make([]float64, b.n),
		RowPtr: make([]int, b.n+1),
	}
	nnz := 0
	for i := 0; i < b.n; i++ {
		for j, v := range b.rows[i] {
			if j < 0 || j >= b.n {
				return nil, fmt.Errorf("sparse: entry (%d,%d) out of range", i, j)
			}
			if j != i && v != 0 {
				nnz++
			}
		}
	}
	m.Cols = make([]int, 0, nnz)
	m.Vals = make([]float64, 0, nnz)
	cols := make([]int, 0, 64)
	for i := 0; i < b.n; i++ {
		cols = cols[:0]
		for j, v := range b.rows[i] {
			if j == i {
				m.Diag[i] = v
			} else if v != 0 {
				cols = append(cols, j)
			}
		}
		sort.Ints(cols)
		for _, j := range cols {
			m.Cols = append(m.Cols, j)
			m.Vals = append(m.Vals, b.rows[i][j])
		}
		m.RowPtr[i+1] = len(m.Cols)
	}
	return m, nil
}

// CSR is a conventional compressed-sparse-row matrix with the diagonal stored
// in-line. It exists for the CPU/GPU reference baselines and for the
// modified-CRS-versus-CSR ablation.
type CSR struct {
	N      int
	RowPtr []int
	Cols   []int
	Vals   []float64
}

// ToCSR converts the modified-CRS matrix to conventional CSR.
func (m *Matrix) ToCSR() *CSR {
	c := &CSR{
		N:      m.N,
		RowPtr: make([]int, m.N+1),
		Cols:   make([]int, 0, m.NNZ()),
		Vals:   make([]float64, 0, m.NNZ()),
	}
	for i := 0; i < m.N; i++ {
		lo, hi := m.RowRange(i)
		k := lo
		placed := false
		for k < hi || !placed {
			if !placed && (k >= hi || m.Cols[k] > i) {
				c.Cols = append(c.Cols, i)
				c.Vals = append(c.Vals, m.Diag[i])
				placed = true
				continue
			}
			c.Cols = append(c.Cols, m.Cols[k])
			c.Vals = append(c.Vals, m.Vals[k])
			k++
		}
		c.RowPtr[i+1] = len(c.Cols)
	}
	return c
}

// FromCSR converts a conventional CSR matrix to modified CRS.
func FromCSR(c *CSR) (*Matrix, error) {
	b := NewBuilder(c.N)
	for i := 0; i < c.N; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			b.Add(i, c.Cols[k], c.Vals[k])
		}
	}
	return b.Build()
}

// MulVec computes y = A*x for the CSR baseline format.
func (c *CSR) MulVec(x, y []float64) {
	for i := 0; i < c.N; i++ {
		s := 0.0
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			s += c.Vals[k] * x[c.Cols[k]]
		}
		y[i] = s
	}
}

// Bytes returns the memory footprint of the format assuming 4-byte values and
// 4-byte indices (device representation), used by the format ablation.
func (m *Matrix) Bytes() int {
	return 4*len(m.Diag) + 4*len(m.RowPtr) + 4*len(m.Cols) + 4*len(m.Vals)
}

// Bytes returns the device memory footprint of the CSR format.
func (c *CSR) Bytes() int {
	return 4*len(c.RowPtr) + 4*len(c.Cols) + 4*len(c.Vals)
}
