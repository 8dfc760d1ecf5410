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
	if st != nil {
		st.Solver = s.Name()
	}

	r := sys.Vector("cg:r")
	z := sys.Vector("cg:z")
	p := sys.Vector("cg:p")
	ap := sys.Vector("cg:ap")

	// r = b - A x ; z = M⁻¹ r ; p = z.
	sys.SpMV(ap, x)
	r.Assign(tensordsl.Sub(b, ap))
	pre.ApplyStep(z, r)
	p.Assign(tensordsl.E(z))

	bnorm2 := ts.Dot(b, b)
	rz := ts.Dot(r, z)
	rzOld := ts.MustScalar("cg:rzOld", x.Type())
	alpha := ts.MustScalar("cg:alpha", x.Type())
	beta := ts.MustScalar("cg:beta", x.Type())

	var (
		iter      int
		relres    = math.Inf(1)
		bnormHost float64
		stop      bool
		g         *guard
		fbSt      RunStats
		fellback  bool

		abftBest   float64
		abftReason string
	)
	abftOn := sys.ABFTEnabled()
	if s.Recover != nil {
		g = newGuard(s.Recover, x, st)
	}
	fail := func(reason string) {
		if st != nil {
			st.Breakdown = true
			st.BreakdownReason = reason
		}
		if g == nil || !g.trip(reason, iter, relres) {
			stop = true
		}
	}
	ts.HostCallback("cg:init", func() error {
		iter, stop = 0, false
		fellback = false
		abftBest, abftReason = math.Inf(1), ""
		fbSt.ResetForRun()
		bnormHost = sqrtPos(bnorm2.Value())
		relres = math.Inf(1)
		rzOld.SetValue(rz.Value())
		st.ResetForRun()
		if g != nil {
			g.reset()
		}
		return nil
	})
	cond := func() bool {
		if g != nil && g.pending {
			return true
		}
		if stop || iter >= s.MaxIter {
			return false
		}
		return s.Tol <= 0 || relres > s.Tol
	}
	maxBody := s.MaxIter + 1
	if g != nil {
		maxBody = s.Recover.maxBody(s.MaxIter)
	}
	ts.While(cond, maxBody, func() {
		if g != nil {
			// Restart branch: restore x, recompute r/z/p, reseed the rz
			// recursion scalar.
			ts.If(func() bool { return g.pending }, func() {
				ts.HostCallback("cg:restore", func() error {
					ci, err := g.restore()
					iter = ci
					return err
				})
				sys.SpMV(ap, x)
				r.Assign(tensordsl.Sub(b, ap))
				pre.ApplyStep(z, r)
				p.Assign(tensordsl.E(z))
				rzR := ts.Dot(r, z)
				res2r := ts.Dot(r, r)
				ts.HostCallback("cg:restart-scalars", func() error {
					rzOld.SetValue(rzR.Value())
					relres = math.Sqrt(math.Abs(res2r.Value())) / bnormHost
					return nil
				})
			}, nil)
		}
		sys.SpMV(ap, p)
		pap := ts.Dot(p, ap)
		ts.HostCallback("cg:pap-check", func() error {
			// A NaN pᵀAp must not slip past the ≤0 test (NaN compares false
			// with everything), or CG iterates on NaNs forever.
			if v := pap.Value(); math.IsNaN(v) {
				fail("nan-pap")
			} else if v <= 0 {
				// Loss of positive definiteness (or breakdown): stop.
				fail("indefinite")
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
		res2 := ts.Dot(r, r)
		ts.HostCallback("cg:monitor", func() error {
			iter++
			// NaN/Inf divergence watchdog (the seed silently ignored NaN
			// here, looping to MaxIter on a poisoned residual).
			if reason := residualCheck(res2.Value()); reason != "" {
				fail(reason)
			} else {
				relres = math.Sqrt(res2.Value()) / bnormHost
			}
			if abftOn {
				// Consume a checksum detection from this iteration's SpMV, or
				// trip the dot-kernel divergence guard; either routes through
				// fail so Recovery can checkpoint-restart.
				if reason := sys.abftConsume(); reason != "" {
					abftReason = reason
					fail(reason)
				} else if reason := abftMonotonicity(relres, abftBest); reason != "" {
					sys.abftNote("dot")
					abftReason = reason
					fail(reason)
				}
				if relres < abftBest {
					abftBest = relres
				}
			}
			if st != nil {
				st.Iterations = iter
				st.RelRes = relres
				st.record(iter, relres, sys.Sess.M.Stats().Seconds)
			}
			if s.Monitor != nil {
				s.Monitor(iter)
			}
			return nil
		})
		if g != nil {
			sax := sys.Vector("cg:sax")
			shadow := sys.Vector("cg:shadow")
			ts.If(func() bool { return !g.pending && !stop && g.due(iter) }, func() {
				sys.SpMV(sax, x)
				shadow.Assign(tensordsl.Sub(b, sax))
				sd := ts.Dot(shadow, shadow)
				ts.HostCallback("cg:verify", func() error {
					g.verify(iter, math.Sqrt(sd.Value())/bnormHost, relres)
					if g.failed || g.pending {
						if st != nil {
							st.Breakdown = true
							st.BreakdownReason = g.reason
						}
						if g.failed {
							stop = true
						}
					}
					return nil
				})
			}, nil)
		}
	})
	if g != nil && s.Recover.Fallback != nil {
		ts.If(func() bool { return g.failed && !(s.Tol > 0 && relres <= s.Tol) }, func() {
			ts.HostCallback("cg:fallback", func() error {
				fellback = true
				_, err := g.restore()
				return err
			})
			fb := s.Recover.Fallback()
			fb.ScheduleSolve(x, b, &fbSt)
		}, nil)
	}
	if abftOn {
		// Final verification: a converged ABFT solve must prove its answer
		// with a freshly scheduled residual before it is believed.
		sys.scheduleABFTVerify("cg", x, b, s.Tol,
			func() bool { return !fellback && s.Tol > 0 && relres <= s.Tol },
			func() float64 { return bnormHost },
			func(trueRel float64) {
				abftReason = "abft-final-verify"
				relres = trueRel
				if st != nil {
					st.Breakdown = true
					st.BreakdownReason = abftReason
				}
			})
	}
	ts.HostCallback("cg:done", func() error {
		converged := s.Tol > 0 && relres <= s.Tol
		if fellback {
			converged = fbSt.Converged
			if st != nil {
				st.Iterations = iter + fbSt.Iterations
				st.RelRes = fbSt.RelRes
				st.History = append(st.History, fbSt.History...)
			}
		}
		if st != nil {
			st.Converged = converged
			if g != nil {
				st.Restarts = g.restarts
				st.Recovered = converged && st.Breakdown
			}
		}
		if g != nil && g.failed && !converged {
			return g.breakdownError(s.Name())
		}
		// An ABFT detection that was neither recovered nor out-converged is a
		// typed breakdown — never a silently wrong (or silently absent) answer.
		if abftOn && s.Tol > 0 && abftReason != "" && !converged && (g == nil || !g.failed) {
			return abftBreakdownError(s.Name(), abftReason, iter)
		}
		return nil
	})
}
