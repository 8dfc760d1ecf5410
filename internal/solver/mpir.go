package solver

import (
	"math"

	"ipusparse/internal/ipu"
	"ipusparse/internal/tensordsl"
)

// CorrectionTol is the relative residual at which an MPIR correction solve
// stops: 16 units of float32 roundoff (16·2⁻²⁴ ≈ 9.5e-7). The correction's
// right-hand side is the residual rounded to float32, so a working-precision
// solve cannot make its true residual much smaller than a few roundoffs of
// it; past this point the recursive residual keeps falling, towards the
// subnormal range and an underflowing recursion scalar, while the correction
// no longer changes. A refinement step gains at most about this factor, and
// the outer loop, which checks the extended-precision residual, supplies the
// rest. The inner iteration budget (MPIRConfig.InnerIterations) stays the
// cap, and correctionTol raises the tolerance when the outer loop needs less.
const CorrectionTol = 16 * 0x1p-24

// correctionTol is the tolerance of the correction solve that follows an
// outer relative residual ρ, for the outer tolerance τ: max(CorrectionTol,
// ½·τ/ρ). The step only has to shrink ρ by τ/ρ; the ½ is margin for rounding
// the residual to float32 and for the extended-precision update. A correction
// runs only while ρ > τ, so the result stays below ½ and the inner solve takes
// at least one iteration. GMRES-IR sets its inner tolerance this way (Carson
// & Higham, SIAM J. Sci. Comput. 40(2), 2018), inexact Newton its forcing
// terms (Eisenstat & Walker, SIAM J. Sci. Comput. 17(1), 1996). τ ≤ 0 (run
// every step) and ρ = +Inf reach the floor through ½·τ/ρ ≤ 0; a ρ that is
// zero, negative or NaN gets it explicitly.
func correctionTol(tau, rho float64) float64 {
	if !(rho > 0) {
		return CorrectionTol
	}
	return math.Max(CorrectionTol, 0.5*tau/rho)
}

// MPIR is the Mixed-Precision Iterative Refinement driver (paper §V-B):
//
//  1. compute the residual r = b − A·x in extended precision,
//  2. solve the correction A·c = r with an inner solver in working precision,
//  3. update x ← x + c in extended precision,
//
// repeated until the extended-precision relative residual reaches Tol. The
// extended type is either double-word (twofloat/Joldes arithmetic) or
// software-emulated double precision; with ExtType = F32 the driver
// degenerates to classic same-precision iterative refinement (equivalently a
// restarted solver), which the paper shows does not improve convergence —
// the comparison behind Figs. 9/10.
type MPIR struct {
	Sys     *System
	ExtType ipu.Scalar // DW, F64, or F32 (plain IR)

	// MakeInner builds the working-precision inner solver capped at
	// InnerIters iterations (built fresh so nested monitors can hook it).
	// tol, when not nil, is the inner solver's run-time stopping tolerance:
	// before each correction solve ScheduleSolve's loop sets it to
	// correctionTol of the outer residual it has just measured. Returning
	// nil keeps the inner solver's fixed tolerance.
	MakeInner  func(maxIter int) (inner Solver, tol *float64)
	InnerIters int
	MaxOuter   int
	Tol        float64

	// Monitor, when set, runs on the host after every outer refinement step.
	Monitor func(outer, totalInner int)
}

// Name implements Solver.
func (s *MPIR) Name() string {
	inner, _ := s.MakeInner(1)
	switch s.ExtType {
	case ipu.DW:
		return "mpir-dw+" + inner.Name()
	case ipu.F64:
		return "mpir-dp+" + inner.Name()
	default:
		return "ir+" + inner.Name()
	}
}

// ScheduleSolve implements Solver. x and b are extended-precision tensors of
// ExtType (for ExtType = F32 they are ordinary working-precision vectors).
func (s *MPIR) ScheduleSolve(x, b Tensor, st *RunStats) {
	sys := s.Sys
	ts := sys.Sess
	ext := s.ExtType
	if st != nil {
		st.Solver = s.Name()
	}

	rExt := sys.VectorTyped("mpir:r", ext)
	rWork := sys.Vector("mpir:rw") // residual rounded to working precision
	c := sys.Vector("mpir:c")      // working-precision correction

	bnorm2 := ts.ReduceLabeled(tensordsl.Mul(b, b), "Reduce")
	var (
		outer     int
		inner     int
		relres    float64
		bnormHost float64
		stop      bool
	)
	ts.HostCallback("mpir:init", func() error {
		outer, inner = 0, 0
		relres = math.Inf(1)
		bnormHost = bnormOf(bnorm2.Value())
		stop = false
		st.ResetForRun()
		return nil
	})
	cond := func() bool {
		if stop || outer >= s.MaxOuter {
			return false
		}
		return s.Tol <= 0 || relres > s.Tol
	}
	ts.While(cond, s.MaxOuter+1, func() {
		innerSolver, innerTol := s.MakeInner(s.InnerIters)
		// Step 1: extended-precision residual.
		if ext == ipu.F32 {
			ax := sys.Vector("mpir:ax")
			sys.SpMV(ax, x)
			rExt.Assign(tensordsl.Sub(b, ax))
		} else {
			sys.ResidualExt(rExt, b, x)
		}
		res2 := ts.ReduceLabeled(tensordsl.Mul(rExt, rExt), "Reduce")
		ts.HostCallback("mpir:res", func() error {
			// NaN/Inf divergence watchdog: a NaN relres would otherwise end
			// the loop silently without flagging a breakdown.
			if rel, reason := relResidual(res2.Value(), bnormHost); reason != "" {
				stop = true
				if st != nil {
					st.Breakdown = true
					st.BreakdownReason = reason
				}
			} else {
				relres = rel
			}
			if innerTol != nil {
				*innerTol = correctionTol(s.Tol, relres)
			}
			if st != nil {
				st.RelRes = relres
				st.record(inner, relres, sys.Sess.M.Stats().Seconds)
			}
			return nil
		})
		// Converged residuals skip the correction solve.
		ts.If(func() bool { return cond() }, func() {
			// Step 2: round to working precision, solve the correction.
			rWork.AssignLabeled(tensordsl.E(rExt), "Extended-Precision Ops")
			c.Assign(0.0)
			var innerStats RunStats
			// The outer ResidualExt verifies every correction, so the inner
			// solve schedules no ABFT final verify of its own; its SpMV
			// checksums stay armed.
			sys.correction = true
			innerSolver.ScheduleSolve(c, rWork, &innerStats)
			sys.correction = false
			// Step 3: extended-precision update.
			x.AssignLabeled(tensordsl.Add(x, c), "Extended-Precision Ops")
			ts.HostCallback("mpir:outer", func() error {
				outer++
				inner += innerStats.Iterations
				if st != nil {
					st.Iterations = inner
					// Propagate the inner solver's resilience record only
					// when it actually restarted. A correction solve normally
					// ends at its correctionTol; scalar stagnation before it is
					// now the exception (a system whose float32 recursion
					// stalls above that level), and it is still the benign
					// end of an approximate inner solve that the outer
					// refinement compensates, not a resilience event. A
					// restart sequence the guard itself classified as
					// deterministic stagnation is the same benign event, even
					// though probe restarts were burned confirming it.
					if innerStats.Breakdown && innerStats.Restarts > 0 && !innerStats.Stagnated {
						st.Breakdown = true
						st.BreakdownReason = innerStats.BreakdownReason
					}
					st.Restarts += innerStats.Restarts
				}
				if s.Monitor != nil {
					s.Monitor(outer, inner)
				}
				return nil
			})
		}, nil)
	})
	ts.HostCallback("mpir:done", func() error {
		if st != nil {
			st.Converged = s.Tol > 0 && relres <= s.Tol
			st.RelRes = relres
			st.Recovered = st.Converged && st.Breakdown
		}
		return nil
	})
}
