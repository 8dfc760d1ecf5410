package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestRowRuns is the run table's contract on random blocks of the counts the
// stencils give, bodies or not, in runs of 1 to 6 rows: the runs cover the
// rows exactly and in order; a body run is at least minBodyRun rows of one
// count with a body, every row matching RowPtr, and cannot grow; mixed runs
// hold only what no body run could take; adjacent runs differ in count. A
// block with no rows has no runs. The SpMV over the table leaves the bits of
// the plain CSR loop, NaN and ±Inf among the inputs; only a NaN's sign and
// payload may differ (a body alternates its accumulator register, and x86
// keeps the first operand's NaN), which no kernel loop sees: they all share
// rows.
func TestRowRuns(t *testing.T) {
	if runs := appendRuns(nil, []int32{0}); len(runs) != 0 {
		t.Fatalf("a block with no rows has runs %v", runs)
	}
	// The next block's table starts afresh, even after a mixed run.
	prev := []RowRun{{First: 0, End: 3, Count: MixedRun}}
	if runs := appendRuns(prev, []int32{0, 1}); len(runs) != 2 || runs[1] != (RowRun{First: 0, End: 1, Count: MixedRun}) {
		t.Fatalf("appended to a mixed run: %v", runs)
	}
	rng := rand.New(rand.NewSource(1))
	counts := []int32{0, 3, 4, 5, 6, 11, 17, 26}
	for trial := 0; trial < 200; trial++ {
		rowPtr := []int32{0}
		for len(rowPtr) < 40 {
			c := counts[rng.Intn(len(counts))]
			for r := 1 + rng.Intn(6); r > 0; r-- {
				rowPtr = append(rowPtr, rowPtr[len(rowPtr)-1]+c)
			}
		}
		rows := int32(len(rowPtr) - 1)
		count := func(i int32) int32 { return rowPtr[i+1] - rowPtr[i] }
		// sameAs returns the end of the equal-count stretch from row i.
		sameAs := func(i int32) int32 {
			e := i + 1
			for e < rows && count(e) == count(i) {
				e++
			}
			return e
		}
		runs := appendRuns(nil, rowPtr)
		next := int32(0)
		for ri, r := range runs {
			if r.First != next || r.End <= r.First {
				t.Fatalf("trial %d: run %d %+v does not continue at row %d", trial, ri, r, next)
			}
			if ri > 0 && runs[ri-1].Count == r.Count {
				t.Fatalf("trial %d: runs %d and %d share count %d", trial, ri-1, ri, r.Count)
			}
			if r.Count == MixedRun {
				for i := r.First; i < r.End; i = sameAs(i) {
					if e := min(sameAs(i), r.End); slices.Contains(rowBodies[:], count(i)) && e-i >= minBodyRun {
						t.Fatalf("trial %d: mixed run %+v holds rows %d..%d of count %d", trial, r, i, e, count(i))
					}
				}
			} else {
				if !slices.Contains(rowBodies[:], r.Count) || r.End-r.First < minBodyRun {
					t.Fatalf("trial %d: run %+v has no body", trial, r)
				}
				if sameAs(r.First) != r.End || (r.First > 0 && count(r.First-1) == r.Count) {
					t.Fatalf("trial %d: run %+v is not maximal", trial, r)
				}
			}
			next = r.End
		}
		if next != rows {
			t.Fatalf("trial %d: runs end at row %d of %d", trial, next, rows)
		}

		// The SpMV over the table against the plain CSR loop, bit for bit.
		n, halo := int(rows), 8
		b := CSRBlock{RowPtr: rowPtr, Cols: make([]int32, rowPtr[rows]), Vals: make([]float32, rowPtr[rows]),
			Diag: make([]float32, n), X: make([]float32, n), H: make([]float32, halo), Y: make([]float32, n)}
		for k := range b.Cols {
			b.Cols[k], b.Vals[k] = int32(rng.Intn(n+halo)), float32(rng.NormFloat64())
		}
		for i := range b.Diag {
			b.Diag[i], b.X[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
		}
		b.X[3], b.H[1], b.H[5] = float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))
		xh := append(slices.Clone(b.X), b.H...)
		SpMVKernel([]CSRBlock{b}, make([]float32, n+halo)).Run()
		for i := 0; i < n; i++ {
			s := b.Diag[i] * xh[i]
			for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
				s += b.Vals[k] * xh[b.Cols[k]]
			}
			nans := s != s && b.Y[i] != b.Y[i]
			if math.Float32bits(s) != math.Float32bits(b.Y[i]) && !nans {
				t.Fatalf("trial %d: row %d of count %d is %#x, the CSR loop gives %#x",
					trial, i, count(int32(i)), math.Float32bits(b.Y[i]), math.Float32bits(s))
			}
		}
	}
}
