package solver

import (
	"math"

	"ipusparse/internal/tensordsl"
)

// CG is the Preconditioned Conjugate Gradient solver for symmetric positive
// definite systems. The paper's benchmark matrices are all SPD, making CG the
// natural companion to PBiCGStab (which also handles nonsymmetric systems);
// it halves the SpMV and preconditioner work per iteration at the price of
// requiring symmetry. Like PBiCGStab it parallelizes across all six worker
// threads without modification and composes with every preconditioner in the
// suite.
type CG struct {
	Sys *System
	Pre Preconditioner // nil = unpreconditioned

	MaxIter  int
	Tol      float64
	SetupPre bool
	Monitor  func(iter int)

	// Recover, when set, hardens the solve with checkpoint/restart breakdown
	// recovery (see Recovery).
	Recover *Recovery
}

// Name implements Solver.
func (s *CG) Name() string {
	if s.Pre != nil {
		return "cg+" + s.Pre.Name()
	}
	return "cg"
}

// ScheduleSolve implements Solver.
func (s *CG) ScheduleSolve(x, b Tensor, st *RunStats) {
	sys := s.Sys
	ts := sys.Sess
	pre := s.Pre
	if pre == nil {
		pre = Identity{Sys: sys}
	}
	if s.SetupPre {
		pre.SetupStep()
	}

	r := sys.Vector("cg:r")
	z := sys.Vector("cg:z")
	p := sys.Vector("cg:p")
	ap := sys.Vector("cg:ap")

	// r = b - A x ; z = M⁻¹ r ; p = z (also the restart's recomputation).
	residual := func() {
		sys.SpMV(ap, x)
		r.Assign(tensordsl.Sub(b, ap))
		pre.ApplyStep(z, r)
		p.Assign(tensordsl.E(z))
	}
	residual()

	bnorm2 := ts.Dot(b, b)
	rz := ts.Dot(r, z)
	rzOld := ts.MustScalar("cg:rzOld", x.Type())
	alpha := ts.MustScalar("cg:alpha", x.Type())
	beta := ts.MustScalar("cg:beta", x.Type())

	l := newLoop(sys, "cg", s.Name(), x, b, st, s.MaxIter, &s.Tol, s.Monitor, s.Recover)
	l.start(bnorm2, func() float64 {
		rzOld.SetValue(rz.Value())
		// CG reads no ‖r‖ before its first iteration, but with b = 0 and
		// x₀ = 0, r = z = 0: that solve is done, and iterating it would
		// divide 0 by pᵀAp = 0.
		if bnorm2.Value() == 0 && rz.Value() == 0 {
			return 0
		}
		return math.Inf(1)
	})
	l.restart = func() (Tensor, func()) {
		residual()
		rzR := ts.Dot(r, z)
		return ts.Dot(r, r), func() { rzOld.SetValue(rzR.Value()) }
	}
	l.run(func() Tensor {
		sys.SpMV(ap, p)
		pap := ts.Dot(p, ap)
		ts.HostCallback("cg:pap-check", func() error {
			// A NaN pᵀAp must not slip past the ≤0 test (NaN compares false
			// with everything), or CG iterates on NaNs forever.
			if v := pap.Value(); math.IsNaN(v) {
				l.fail("nan-pap")
			} else if v <= 0 {
				// Loss of positive definiteness (or breakdown): stop.
				l.fail("indefinite")
			}
			return nil
		})
		alpha.Assign(tensordsl.Div(rzOld, pap))
		x.Assign(tensordsl.Add(x, tensordsl.Mul(alpha, p)))
		r.Assign(tensordsl.Sub(r, tensordsl.Mul(alpha, ap)))
		pre.ApplyStep(z, r)
		rzNew := ts.Dot(r, z)
		beta.Assign(tensordsl.Div(rzNew, rzOld))
		p.Assign(tensordsl.Add(z, tensordsl.Mul(beta, p)))
		rzOld.Assign(tensordsl.E(rzNew))
		return ts.Dot(r, r)
	})
}
