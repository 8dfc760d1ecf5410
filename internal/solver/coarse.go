package solver

import (
	"fmt"

	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
	"ipusparse/internal/tensordsl"
)

// CoarseCorrection augments a tile-local preconditioner with a second,
// coarse level: one aggregate per tile, a Galerkin coarse operator
// A_c = R·A·P with piecewise-constant restriction/prolongation, and a
// multiplicative correction
//
//	z₁ = M_fine⁻¹ r
//	z  = z₁ + P · A_c⁻¹ · R (r − A z₁).
//
// This implements the compensation the paper sketches in §VI-D: tile-local
// ILU(0) disregards halo couplings, which degrades it as the tile count
// grows; a small interface/coarse system restores global coupling. The
// paper leaves it unimplemented ("would likely necessitate a multi-step
// process"); here the coarse system (tiles × tiles) is gathered to tile 0,
// solved densely with a pre-computed LU, and the correction is broadcast
// back — adequate up to a few thousand tiles.
type CoarseCorrection struct {
	Sys  *System
	Fine Preconditioner

	lu    [][]float64 // dense LU factors of A_c, in-place, on "tile 0"
	piv   []int
	nt    int
	setup bool
}

// Name implements Preconditioner.
func (p *CoarseCorrection) Name() string { return p.Fine.Name() + "+coarse" }

// SetupStep implements Preconditioner: sets up the fine preconditioner,
// assembles the Galerkin coarse operator from the localized matrix blocks,
// and schedules its dense LU factorization on tile 0.
func (p *CoarseCorrection) SetupStep() {
	p.Fine.SetupStep()
	sys := p.Sys
	l := sys.Layout
	nt := l.NumTiles
	p.nt = nt

	// Assemble A_c[s][t] = sum over entries a_ij with owner(i)=s, owner(j)=t.
	// The factor codelet below re-runs denseLU(ac) on every program execution,
	// so re-filling ac in place is all a values-only refresh needs.
	ac := make([][]float64, nt)
	for s := range ac {
		ac[s] = make([]float64, nt)
	}
	assemble := func() error {
		for s := range ac {
			row := ac[s]
			for t := range row {
				row[t] = 0
			}
		}
		for t, lm := range sys.Locals {
			tl := &l.Tiles[t]
			for i := 0; i < lm.NumOwned; i++ {
				ac[t][t] += float64(sys.diag[t][i])
				for k := lm.RowPtr[i]; k < lm.RowPtr[i+1]; k++ {
					j := int(lm.Cols[k])
					v := float64(sys.vals[t][k])
					if j < lm.NumOwned {
						ac[t][t] += v
					} else {
						owner := l.Owner[tl.Halo[j-lm.NumOwned]]
						ac[t][owner] += v
					}
				}
			}
		}
		return nil
	}
	if err := assemble(); err != nil {
		panic(err) // assemble cannot fail; the signature matches OnRefresh
	}
	sys.OnRefresh(assemble)
	// SRAM for the dense factors on tile 0. An overflow is data-dependent
	// (too many tiles for the dense coarse operator), so it surfaces as a
	// failed program step instead of a panic.
	if err := sys.Sess.M.Alloc(0, 8*nt*nt); err != nil {
		err = fmt.Errorf("solver: coarse operator on tile 0: %w", err)
		sys.Sess.Append(graph.HostCall{Name: "coarse:alloc", Fn: func() error { return err }})
		return
	}

	cs := graph.NewComputeSet("coarse:factor", "Coarse Factor")
	cs.Add(0, graph.CodeletFunc(func() uint64 {
		p.lu, p.piv = denseLU(ac)
		p.setup = true
		// Dense LU is ~2/3 n³ flops on one tile's FP pipeline.
		return uint64(2*nt*nt*nt/3)*ipu.Cost(ipu.OpFMA, ipu.F32) + workerStart
	}))
	sys.Sess.Append(graph.Compute{Set: cs})
}

// denseLU factors a (copied) dense matrix with partial pivoting.
func denseLU(a [][]float64) ([][]float64, []int) {
	n := len(a)
	lu := make([][]float64, n)
	for i := range lu {
		lu[i] = append([]float64(nil), a[i]...)
	}
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for c := 0; c < n; c++ {
		// Partial pivoting.
		best, bi := abs64(lu[c][c]), c
		for r := c + 1; r < n; r++ {
			if v := abs64(lu[r][c]); v > best {
				best, bi = v, r
			}
		}
		if bi != c {
			lu[c], lu[bi] = lu[bi], lu[c]
			piv[c], piv[bi] = piv[bi], piv[c]
		}
		if lu[c][c] == 0 {
			lu[c][c] = 1e-30 // singular coarse operator: neutralize
		}
		for r := c + 1; r < n; r++ {
			f := lu[r][c] / lu[c][c]
			lu[r][c] = f
			for k := c + 1; k < n; k++ {
				lu[r][k] -= f * lu[c][k]
			}
		}
	}
	return lu, piv
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// luSolve solves LU x = b[piv].
func luSolve(lu [][]float64, piv []int, b []float64) []float64 {
	n := len(lu)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[piv[i]]
	}
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			x[i] -= lu[i][k] * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		for k := i + 1; k < n; k++ {
			x[i] -= lu[i][k] * x[k]
		}
		x[i] /= lu[i][i]
	}
	return x
}

// ApplyStep implements Preconditioner.
func (p *CoarseCorrection) ApplyStep(z, r Tensor) {
	sys := p.Sys
	ts := sys.Sess
	nt := p.nt

	// z = M_fine⁻¹ r.
	p.Fine.ApplyStep(z, r)

	// rc = r - A z (needs a fresh halo exchange of z inside SpMV).
	az := sys.Vector("coarse:az")
	rc := sys.Vector("coarse:rc")
	sys.SpMV(az, z)
	rc.Assign(tensordsl.Sub(r, az))

	// Restrict: coarse[s] = sum of rc on tile s (one partial per tile).
	coarseR := make([]float64, nt)
	restrict := graph.NewComputeSet("coarse:restrict", "Coarse Solve")
	for t, lm := range sys.Locals {
		if lm.NumOwned == 0 {
			continue
		}
		buf := rc.Buf(t)
		n := lm.NumOwned
		cost := (uint64(n)*ipu.Cost(ipu.OpAdd, ipu.F32)+5)/6 + workerStart
		restrict.Add(t, graph.CodeletFunc(func() uint64 {
			var s float32
			for _, v := range buf.F32 {
				s += v
			}
			coarseR[t] = float64(s)
			return cost
		}))
	}
	ts.Append(graph.Compute{Set: restrict})

	// Gather the partials to tile 0.
	var gather []graph.Move
	for t := 1; t < nt; t++ {
		gather = append(gather, graph.Move{SrcTile: t, DstTiles: []int{0}, Bytes: 4})
	}
	if len(gather) > 0 {
		ts.Append(graph.Exchange{Name: "coarse:gather", Label: "Coarse Solve", Moves: gather})
	}

	// Solve A_c c = R rc on tile 0. Applying before SetupStep's factor
	// codelet has run is reported through a host callback as a typed error
	// (the engine aborts before the solve compute set executes).
	ts.Append(graph.HostCall{Name: "coarse:check", Fn: func() error {
		if !p.setup {
			return fmt.Errorf("%w: CoarseCorrection", ErrNotSetup)
		}
		return nil
	}})
	coarseZ := make([]float64, nt)
	solve := graph.NewComputeSet("coarse:solve", "Coarse Solve")
	solve.Add(0, graph.CodeletFunc(func() uint64 {
		if p.setup {
			copy(coarseZ, luSolve(p.lu, p.piv, coarseR))
		}
		return uint64(nt*nt)*ipu.Cost(ipu.OpFMA, ipu.F32) + workerStart
	}))
	ts.Append(graph.Compute{Set: solve})

	// Scatter each tile its coarse value.
	var scatter []graph.Move
	for t := 1; t < nt; t++ {
		scatter = append(scatter, graph.Move{SrcTile: 0, DstTiles: []int{t}, Bytes: 4})
	}
	if len(scatter) > 0 {
		ts.Append(graph.Exchange{Name: "coarse:scatter", Label: "Coarse Solve", Moves: scatter})
	}

	// Prolong: z += c[tile] on every owned cell.
	prolong := graph.NewComputeSet("coarse:prolong", "Coarse Solve")
	for t, lm := range sys.Locals {
		if lm.NumOwned == 0 {
			continue
		}
		buf := z.Buf(t)
		tt := t
		n := lm.NumOwned
		cost := (uint64(n)*ipu.Cost(ipu.OpAdd, ipu.F32)+5)/6 + workerStart
		prolong.Add(t, graph.CodeletFunc(func() uint64 {
			c := float32(coarseZ[tt])
			for i := range buf.F32 {
				buf.F32[i] += c
			}
			return cost
		}))
	}
	ts.Append(graph.Compute{Set: prolong})
}
