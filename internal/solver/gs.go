package solver

import (
	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
	"ipusparse/internal/levelset"
	"ipusparse/internal/tensordsl"
)

// GaussSeidel is the Gauss-Seidel method (paper §V-D), usable both as a
// preconditioner/smoother (local sweeps from a zero guess) and, through
// Richardson or its own solve loop, as a standalone solver. Within a tile the
// update is the exact sequential recurrence of Eq. (1), parallelized onto the
// six worker threads by level-set scheduling; across tiles, halo values lag
// by one exchange (the standard hybrid Gauss-Seidel/Jacobi of distributed
// solvers).
type GaussSeidel struct {
	Sys       *System
	Sweeps    int  // sweeps per application (default 1)
	Symmetric bool // follow each forward sweep with a backward sweep

	gsfCost []uint64
	gsbCost []uint64
}

// Name implements Preconditioner.
func (*GaussSeidel) Name() string { return "gaussseidel" }

// SetupStep implements Preconditioner: precomputes the level-set schedules
// and sweep costs.
func (p *GaussSeidel) SetupStep() {
	sys := p.Sys
	p.gsfCost = make([]uint64, len(sys.Locals))
	p.gsbCost = make([]uint64, len(sys.Locals))
	workers := sys.Sess.M.Config().WorkersPerTile
	for t, lm := range sys.Locals {
		if lm.NumOwned == 0 {
			continue
		}
		rowCost := func(i int) uint64 {
			nnz := uint64(lm.RowPtr[i+1] - lm.RowPtr[i])
			return sweepRowCost(nnz) + ipu.Cost(ipu.OpDiv, ipu.F32)
		}
		lower := levelset.Lower(lm.NumOwned, lm.RowPtr, lm.Cols)
		upper := levelset.Upper(lm.NumOwned, lm.RowPtr, lm.Cols)
		p.gsfCost[t] = lower.ParallelCost(workers, rowCost, levelSyncCycles) + workerStart
		p.gsbCost[t] = upper.ParallelCost(workers, rowCost, levelSyncCycles) + workerStart
	}
}

// sweepStep schedules one Gauss-Seidel sweep updating x in place against rhs
// b, using the current halo buffer contents for remote columns. forward
// selects the sweep direction.
func (p *GaussSeidel) sweepStep(x, b Tensor, forward, useHalo bool) {
	sys := p.Sys
	name, label := "gs:fwd", "Gauss-Seidel"
	if !forward {
		name = "gs:bwd"
	}
	cs := graph.NewComputeSet(name, label)
	halos, herr := sys.haloBuffers(ipu.F32)
	if herr != nil {
		sys.Sess.Append(graph.HostCall{Name: name + ":alloc", Fn: func() error { return herr }})
		return
	}
	for t, lm := range sys.Locals {
		if lm.NumOwned == 0 {
			continue
		}

		xb, bb, hb := x.Buf(t), b.Buf(t), halos[t]
		diag, vals := sys.diag[t], sys.vals[t]
		cost := p.gsfCost[t]
		if !forward {
			cost = p.gsbCost[t]
		}
		fwd := forward
		hal := useHalo
		cs.Add(t, graph.CodeletFunc(func() uint64 {
			xv, bv, hv := xb.F32, bb.F32, hb.F32
			sweep := func(i int) {
				s := bv[i]
				for k := lm.RowPtr[i]; k < lm.RowPtr[i+1]; k++ {
					j := int(lm.Cols[k])
					if j < lm.NumOwned {
						s -= vals[k] * xv[j]
					} else if hal {
						s -= vals[k] * hv[j-lm.NumOwned]
					}
				}
				xv[i] = s / diag[i]
			}
			if fwd {
				for i := 0; i < lm.NumOwned; i++ {
					sweep(i)
				}
			} else {
				for i := lm.NumOwned - 1; i >= 0; i-- {
					sweep(i)
				}
			}
			return cost
		}))
	}
	sys.Sess.Append(graph.Compute{Set: cs})
}

// ApplyStep implements Preconditioner: z starts at zero and receives Sweeps
// local Gauss-Seidel sweeps against r (no halo exchange inside the
// application — the preconditioner is tile-local, like the ILU variant).
func (p *GaussSeidel) ApplyStep(z, r Tensor) {
	z.Assign(0.0)
	sweeps := p.Sweeps
	if sweeps < 1 {
		sweeps = 1
	}
	for s := 0; s < sweeps; s++ {
		p.sweepStep(z, r, true, false)
		if p.Symmetric {
			p.sweepStep(z, r, false, false)
		}
	}
}

// SmoothStep schedules Sweeps global smoothing sweeps on x against b,
// exchanging halos before each sweep — the standalone-solver iteration
// (used by GaussSeidelSolver and as a multigrid-style smoother).
func (p *GaussSeidel) SmoothStep(x, b Tensor) {
	sweeps := p.Sweeps
	if sweeps < 1 {
		sweeps = 1
	}
	for s := 0; s < sweeps; s++ {
		p.Sys.ExchangeStep(x)
		p.sweepStep(x, b, true, true)
		if p.Symmetric {
			p.Sys.ExchangeStep(x)
			p.sweepStep(x, b, false, true)
		}
	}
}

// NewGaussSeidelSolver builds a standalone Gauss-Seidel solver: smoothing
// sweeps with halo exchanges plus a residual-based convergence loop (the
// paper uses TensorDSL for the residual and its norm, CodeDSL-class codelets
// for the smoothing step).
func NewGaussSeidelSolver(sys *System, sweepsPerCheck, maxIter int, tol float64) Solver {
	gs := &GaussSeidel{Sys: sys, Sweeps: sweepsPerCheck}
	return &gsSolver{gs: gs, maxIter: maxIter, tol: tol}
}

type gsSolver struct {
	gs      *GaussSeidel
	maxIter int
	tol     float64
}

func (s *gsSolver) Name() string { return "gaussseidel" }

// ScheduleSolve implements Solver. The residual the monitor reads is that of
// the iterate the solve returns, so it needs no final ABFT verify; the solver
// takes no Recovery policy.
func (s *gsSolver) ScheduleSolve(x, b Tensor, st *RunStats) {
	sys := s.gs.Sys
	ts := sys.Sess
	s.gs.SetupStep()
	r := sys.Vector("gs:r")
	ax := sys.Vector("gs:ax")

	l := newLoop(sys, "gs", s.Name(), x, b, st, s.maxIter, &s.tol, nil, nil)
	l.exact = true
	l.start(ts.Dot(b, b), nil)
	l.run(func() Tensor {
		s.gs.SmoothStep(x, b)
		sys.SpMV(ax, x)
		r.Assign(tensordsl.Sub(b, ax))
		return ts.Dot(r, r)
	})
}
