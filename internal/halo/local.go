package halo

import (
	"fmt"
	"math"

	"ipusparse/internal/sparse"
)

// LocalMatrix is the tile-local slice of the distributed matrix in modified
// CRS with *local* column indices: columns < NumOwned address the tile's own
// cells (in layout order), columns >= NumOwned address halo cells. RowPtr and
// Cols are the device's 4-byte indices; the sim codelets and the native
// kernels read these same two arrays.
type LocalMatrix struct {
	Tile     int
	NumOwned int
	NumHalo  int
	Diag     []float64
	RowPtr   []int32
	Cols     []int32
	Vals     []float64
}

// Total returns the local vector length the matrix operates on.
func (lm *LocalMatrix) Total() int { return lm.NumOwned + lm.NumHalo }

// NNZ returns the stored entries of the local block including diagonals.
func (lm *LocalMatrix) NNZ() int { return lm.NumOwned + len(lm.Vals) }

// MulVec computes y = A_local * x for a local vector x of length Total()
// (owned followed by halo values). y has length NumOwned.
func (lm *LocalMatrix) MulVec(x, y []float64) {
	for i := 0; i < lm.NumOwned; i++ {
		s := lm.Diag[i] * x[i]
		for k := lm.RowPtr[i]; k < lm.RowPtr[i+1]; k++ {
			s += lm.Vals[k] * x[lm.Cols[k]]
		}
		y[i] = s
	}
}

// Localize splits the global matrix into per-tile local matrices under the
// layout. Every off-diagonal entry is mapped to a local column: owned columns
// keep their layout position, remote columns resolve to the tile's halo
// block. Diagonal entries stay in the dense local diagonal.
func Localize(m *sparse.Matrix, l *Layout) ([]*LocalMatrix, error) {
	if m.N != l.N {
		return nil, fmt.Errorf("halo: matrix has %d rows, layout %d", m.N, l.N)
	}
	// Per-tile map from global halo row to local index.
	haloIdx := make([]map[int]int, l.NumTiles)
	for t := range l.Tiles {
		tl := &l.Tiles[t]
		haloIdx[t] = make(map[int]int, tl.NumHalo)
		for i, g := range tl.Halo {
			haloIdx[t][g] = tl.NumOwned + i
		}
	}
	out := make([]*LocalMatrix, l.NumTiles)
	for t := range out {
		tl := &l.Tiles[t]
		lm := &LocalMatrix{
			Tile:     t,
			NumOwned: tl.NumOwned,
			NumHalo:  tl.NumHalo,
			Diag:     make([]float64, tl.NumOwned),
			RowPtr:   make([]int32, tl.NumOwned+1),
		}
		for li, g := range tl.Owned {
			lm.Diag[li] = m.Diag[g]
			lo, hi := m.RowRange(g)
			for k := lo; k < hi; k++ {
				j := m.Cols[k]
				var col int
				if l.Owner[j] == t {
					col = l.LocalIndex[j]
				} else {
					c, ok := haloIdx[t][j]
					if !ok {
						return nil, fmt.Errorf("halo: tile %d row %d references %d outside halo", t, g, j)
					}
					col = c
				}
				lm.Cols = append(lm.Cols, int32(col))
				lm.Vals = append(lm.Vals, m.Vals[k])
			}
			lm.RowPtr[li+1] = int32(len(lm.Cols))
		}
		if len(lm.Cols) > math.MaxInt32 || tl.Total() > math.MaxInt32 {
			return nil, fmt.Errorf("halo: tile %d (%d entries, %d local cells) exceeds the 4-byte index range",
				t, len(lm.Cols), tl.Total())
		}
		out[t] = lm
	}
	return out, nil
}

// RefreshValues overwrites the numeric payload of previously localized
// matrices — Diag and Vals, in the exact order Localize appended them — with
// the values of m, leaving every structural field (RowPtr, Cols, halo maps)
// untouched. m must share the sparsity pattern the locals were built from;
// the per-row entry counts are re-verified so a mismatched matrix fails
// instead of silently mislowering. No allocation happens on this path.
func RefreshValues(m *sparse.Matrix, l *Layout, locals []*LocalMatrix) error {
	if m.N != l.N {
		return fmt.Errorf("halo: matrix has %d rows, layout %d", m.N, l.N)
	}
	if len(locals) != l.NumTiles {
		return fmt.Errorf("halo: %d local matrices for %d tiles", len(locals), l.NumTiles)
	}
	for t, lm := range locals {
		tl := &l.Tiles[t]
		for li, g := range tl.Owned {
			lo, hi := m.RowRange(g)
			k0, k1 := int(lm.RowPtr[li]), int(lm.RowPtr[li+1])
			if hi-lo != k1-k0 {
				return fmt.Errorf("halo: tile %d row %d has %d entries, local structure %d",
					t, g, hi-lo, k1-k0)
			}
			lm.Diag[li] = m.Diag[g]
			copy(lm.Vals[k0:k1], m.Vals[lo:hi])
		}
	}
	return nil
}

// DistributeVector scatters a global vector into per-tile local vectors of
// length Total(); halo slots are zero until an exchange runs.
func (l *Layout) DistributeVector(x []float64) [][]float64 {
	out := make([][]float64, l.NumTiles)
	for t := range l.Tiles {
		tl := &l.Tiles[t]
		v := make([]float64, tl.Total())
		for li, g := range tl.Owned {
			v[li] = x[g]
		}
		out[t] = v
	}
	return out
}

// GatherVector collects the owned parts of per-tile local vectors back into a
// global vector.
func (l *Layout) GatherVector(locals [][]float64) []float64 {
	x := make([]float64, l.N)
	for t := range l.Tiles {
		tl := &l.Tiles[t]
		for li, g := range tl.Owned {
			x[g] = locals[t][li]
		}
	}
	return x
}

// ApplyExchange performs the halo exchange functionally on host-side local
// vectors: each separator region block is copied to its halo mirrors. This is
// the reference semantics the simulated device exchange must match.
func (l *Layout) ApplyExchange(locals [][]float64) {
	for _, tr := range l.Program {
		src := locals[tr.SrcTile][tr.SrcOff : tr.SrcOff+tr.Len]
		for _, d := range tr.Dst {
			copy(locals[d.Tile][d.Off:d.Off+tr.Len], src)
		}
	}
}
