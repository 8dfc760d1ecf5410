package solver

import (
	"math"

	"ipusparse/internal/tensordsl"
)

// PBiCGStab is the Preconditioned Bi-Conjugate Gradient Stabilized solver
// (van der Vorst), scheduled exactly as the paper's Fig. 4 DSL program:
// TensorDSL expressions for the vector updates and reductions, SpMV and
// preconditioner compute sets in between, and a While whose condition reads
// the device-computed residual scalar on the host. The method's inherent
// parallelism runs across all six worker threads without modification.
type PBiCGStab struct {
	Sys *System
	Pre Preconditioner // nil = unpreconditioned

	MaxIter  int
	Tol      float64 // relative residual (euclidean), 0 = run to MaxIter
	SetupPre bool    // schedule Pre.SetupStep before the loop

	// Monitor, when set, is called on the host after every iteration.
	Monitor func(iter int)

	// Recover, when set, hardens the solve with checkpoint/restart breakdown
	// recovery (see Recovery). Nil keeps the scheduled program identical to
	// the unhardened solver.
	Recover *Recovery

	breakEps float64
}

// Name implements Solver.
func (s *PBiCGStab) Name() string {
	if s.Pre != nil {
		return "pbicgstab+" + s.Pre.Name()
	}
	return "bicgstab"
}

// ScheduleSolve implements Solver. x holds the initial guess and receives the
// solution; both tensors are float32 system vectors.
func (s *PBiCGStab) ScheduleSolve(x, b Tensor, st *RunStats) {
	sys := s.Sys
	ts := sys.Sess
	pre := s.Pre
	if pre == nil {
		pre = Identity{Sys: sys}
	}
	if s.SetupPre {
		pre.SetupStep()
	}
	if s.breakEps == 0 {
		s.breakEps = 1e-35
	}

	r := sys.Vector("bicg:r")
	r0 := sys.Vector("bicg:r0")
	p := sys.Vector("bicg:p")
	v := sys.Vector("bicg:v")
	y := sys.Vector("bicg:y")
	sv := sys.Vector("bicg:s")
	z := sys.Vector("bicg:z")
	t := sys.Vector("bicg:t")
	ax := sys.Vector("bicg:ax")

	// r = b - A x; r0 = r; p = v = 0 (also the restart's recomputation, with
	// a fresh shadow residual r0).
	residual := func() {
		sys.SpMV(ax, x)
		r.Assign(tensordsl.Sub(b, ax))
		r0.Assign(tensordsl.E(r))
		p.Assign(0.0)
		v.Assign(0.0)
	}
	residual()

	bnorm2 := ts.Dot(b, b)
	res2 := ts.Dot(r, r)
	l := newLoop(sys, "bicg", s.Name(), x, b, st, s.MaxIter, &s.Tol, s.Monitor, s.Recover)
	l.start(bnorm2, func() float64 { return math.Sqrt(res2.Value()) / l.bnorm })

	// Persistent scalars of the recursion.
	rho := ts.MustScalar("bicg:rho", x.Type())
	rhoOld := ts.MustScalar("bicg:rhoOld", x.Type())
	alpha := ts.MustScalar("bicg:alpha", x.Type())
	omega := ts.MustScalar("bicg:omega", x.Type())
	beta := ts.MustScalar("bicg:beta", x.Type())
	reseed := func() {
		rhoOld.SetValue(1)
		alpha.SetValue(1)
		omega.SetValue(1)
	}
	ts.HostCallback("bicg:scalars", func() error {
		reseed()
		return nil
	})
	l.restart = func() (Tensor, func()) {
		residual()
		return ts.Dot(r, r), reseed
	}
	l.run(func() Tensor {
		rhoT := ts.Dot(r0, r)
		rho.Assign(tensordsl.E(rhoT))
		ts.HostCallback("bicg:rho-check", func() error {
			if math.Abs(rho.Value()) < s.breakEps {
				l.fail("rho")
			}
			return nil
		})
		// beta = (rho / rhoOld) * (alpha / omega)
		beta.Assign(tensordsl.Mul(tensordsl.Div(rho, rhoOld), tensordsl.Div(alpha, omega)))
		// p = r + beta*(p - omega*v)
		p.Assign(tensordsl.Add(r, tensordsl.Mul(beta, tensordsl.Sub(p, tensordsl.Mul(omega, v)))))
		// y = M⁻¹ p ; v = A y
		pre.ApplyStep(y, p)
		sys.SpMV(v, y)
		// alpha = rho / (r0 · v)
		gamma := ts.Dot(r0, v)
		ts.HostCallback("bicg:gamma-check", func() error {
			if math.Abs(gamma.Value()) < s.breakEps {
				l.fail("gamma")
			}
			return nil
		})
		alpha.Assign(tensordsl.Div(rho, gamma))
		// s = r - alpha*v ; z = M⁻¹ s ; t = A z
		sv.Assign(tensordsl.Sub(r, tensordsl.Mul(alpha, v)))
		pre.ApplyStep(z, sv)
		sys.SpMV(t, z)
		// omega = (t·s)/(t·t)
		tsDot := ts.Dot(t, sv)
		ttDot := ts.Dot(t, t)
		ts.HostCallback("bicg:omega-check", func() error {
			if v := ttDot.Value(); v < s.breakEps || math.IsNaN(v) {
				l.fail("omega")
			}
			return nil
		})
		omega.Assign(tensordsl.Div(tsDot, ttDot))
		// x = x + alpha*y + omega*z ; r = s - omega*t
		x.Assign(tensordsl.Add(x, tensordsl.Add(tensordsl.Mul(alpha, y), tensordsl.Mul(omega, z))))
		r.Assign(tensordsl.Sub(sv, tensordsl.Mul(omega, t)))
		rhoOld.Assign(tensordsl.E(rho))
		return ts.Dot(r, r)
	})
}

// Richardson iterates x ← x + M⁻¹(b − A·x): the stationary iteration that
// turns any preconditioner into a standalone solver (and, nested the other
// way, lets Gauss-Seidel or ILU run as the outer method of a configuration).
type Richardson struct {
	Sys *System
	Pre Preconditioner

	MaxIter  int
	Tol      float64
	SetupPre bool
	Monitor  func(iter int)

	// Recover, when set, adds checkpoint/restart recovery. Richardson
	// recomputes its true residual every iteration, so no shadow
	// verification is needed: healthy states are checkpointed directly and
	// a NaN/Inf residual restores the last one. The Fallback escalation is
	// not scheduled here — Richardson is itself the typical fallback.
	Recover *Recovery
}

// Name implements Solver.
func (s *Richardson) Name() string { return "richardson+" + s.Pre.Name() }

// ScheduleSolve implements Solver.
func (s *Richardson) ScheduleSolve(x, b Tensor, st *RunStats) {
	sys := s.Sys
	ts := sys.Sess
	if s.SetupPre {
		s.Pre.SetupStep()
	}
	r := sys.Vector("rich:r")
	c := sys.Vector("rich:c")
	ax := sys.Vector("rich:ax")

	l := newLoop(sys, "rich", s.Name(), x, b, st, s.MaxIter, &s.Tol, s.Monitor, s.Recover)
	l.start(ts.Dot(b, b), nil)
	l.run(func() Tensor {
		sys.SpMV(ax, x)
		r.Assign(tensordsl.Sub(b, ax))
		s.Pre.ApplyStep(c, r)
		x.Assign(tensordsl.Add(x, c))
		return ts.Dot(r, r)
	})
}

// SolverPrecond adapts any Solver into a Preconditioner by running a fixed
// number of iterations from a zero initial guess — the paper's nested solver
// configurations ("any solver can serve as a preconditioner for another").
type SolverPrecond struct {
	Make func(maxIter int) Solver // builds the inner solver with a cap
	Iter int
	name string
}

// Name implements Preconditioner.
func (p *SolverPrecond) Name() string {
	if p.name == "" {
		p.name = p.Make(p.Iter).Name() + "-precond"
	}
	return p.name
}

// SetupStep implements Preconditioner.
func (p *SolverPrecond) SetupStep() {}

// ApplyStep implements Preconditioner: z = 0; run Iter iterations of the
// inner solver on A z = r.
func (p *SolverPrecond) ApplyStep(z, r Tensor) {
	z.Assign(0.0)
	inner := p.Make(p.Iter)
	inner.ScheduleSolve(z, r, nil)
}
