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
	if st != nil {
		st.Solver = s.Name()
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

	// r = b - A x; r0 = r; p = v = 0.
	sys.SpMV(ax, x)
	r.Assign(tensordsl.Sub(b, ax))
	r0.Assign(tensordsl.E(r))
	p.Assign(0.0)
	v.Assign(0.0)

	bnorm2 := ts.Dot(b, b)
	res2 := ts.Dot(r, r)

	// Host-side control state, updated by callbacks during execution.
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
	// fail reports a breakdown detected at the current iteration: without a
	// Recovery policy it stops the loop (seed behaviour); with one it arms a
	// checkpoint restart until the budget is spent.
	fail := func(reason string) {
		if st != nil {
			st.Breakdown = true
			st.BreakdownReason = reason
		}
		if g == nil || !g.trip(reason, iter, relres) {
			stop = true
		}
	}
	ts.HostCallback("bicg:init", func() error {
		iter, stop = 0, false
		fellback = false
		abftBest, abftReason = math.Inf(1), ""
		fbSt.ResetForRun()
		bnormHost = math.Sqrt(bnorm2.Value())
		if bnormHost == 0 {
			bnormHost = 1 // solving Ax=0: use absolute residual
		}
		relres = math.Sqrt(res2.Value()) / bnormHost
		st.ResetForRun()
		if g != nil {
			g.reset()
		}
		return nil
	})

	// Persistent scalars of the recursion.
	rho := ts.MustScalar("bicg:rho", x.Type())
	rhoOld := ts.MustScalar("bicg:rhoOld", x.Type())
	alpha := ts.MustScalar("bicg:alpha", x.Type())
	omega := ts.MustScalar("bicg:omega", x.Type())
	beta := ts.MustScalar("bicg:beta", x.Type())
	ts.HostCallback("bicg:scalars", func() error {
		rhoOld.SetValue(1)
		alpha.SetValue(1)
		omega.SetValue(1)
		return nil
	})

	cond := func() bool {
		if g != nil && g.pending {
			return true // a checkpoint restore is due; keep the loop alive
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
			// Restart branch: restore x from the last verified checkpoint,
			// recompute the true residual and reset the Krylov recursion with
			// a fresh shadow residual r0. It costs nothing unless a watchdog
			// tripped.
			ts.If(func() bool { return g.pending }, func() {
				ts.HostCallback("bicg:restore", func() error {
					ci, err := g.restore()
					iter = ci
					return err
				})
				sys.SpMV(ax, x)
				r.Assign(tensordsl.Sub(b, ax))
				r0.Assign(tensordsl.E(r))
				p.Assign(0.0)
				v.Assign(0.0)
				res2r := ts.Dot(r, r)
				ts.HostCallback("bicg:restart-scalars", func() error {
					rhoOld.SetValue(1)
					alpha.SetValue(1)
					omega.SetValue(1)
					relres = math.Sqrt(res2r.Value()) / bnormHost
					return nil
				})
			}, nil)
		}
		rhoT := ts.Dot(r0, r)
		rho.Assign(tensordsl.E(rhoT))
		ts.HostCallback("bicg:rho-check", func() error {
			if math.Abs(rho.Value()) < s.breakEps {
				fail("rho")
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
				fail("gamma")
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
				fail("omega")
			}
			return nil
		})
		omega.Assign(tensordsl.Div(tsDot, ttDot))
		// x = x + alpha*y + omega*z ; r = s - omega*t
		x.Assign(tensordsl.Add(x, tensordsl.Add(tensordsl.Mul(alpha, y), tensordsl.Mul(omega, z))))
		r.Assign(tensordsl.Sub(sv, tensordsl.Mul(omega, t)))
		rhoOld.Assign(tensordsl.E(rho))
		res2b := ts.Dot(r, r)
		ts.HostCallback("bicg:monitor", func() error {
			iter++
			// NaN/Inf divergence watchdog: a residual that blew up (singular
			// preconditioner pivots, corrupted exchange words) is a
			// breakdown, not something to iterate on.
			if reason := residualCheck(res2b.Value()); reason != "" {
				fail(reason)
			} else {
				relres = math.Sqrt(res2b.Value()) / bnormHost
			}
			if abftOn {
				// Consume checksum detections from this iteration's SpMVs, or
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
			// Shadow-residual verification: every Interval iterations compute
			// the true residual with a scheduled SpMV, checkpoint healthy
			// states, trip on silent drift.
			sax := sys.Vector("bicg:sax")
			shadow := sys.Vector("bicg:shadow")
			ts.If(func() bool { return !g.pending && !stop && g.due(iter) }, func() {
				sys.SpMV(sax, x)
				shadow.Assign(tensordsl.Sub(b, sax))
				sd := ts.Dot(shadow, shadow)
				ts.HostCallback("bicg:verify", func() error {
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
	// Escalation: once the restart budget is spent without convergence, rerun
	// from the last checkpoint with the configured fallback solver.
	if g != nil && s.Recover.Fallback != nil {
		ts.If(func() bool { return g.failed && !(s.Tol > 0 && relres <= s.Tol) }, func() {
			ts.HostCallback("bicg:fallback", func() error {
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
		sys.scheduleABFTVerify("bicg", x, b, s.Tol,
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
	ts.HostCallback("bicg:done", func() error {
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
	if st != nil {
		st.Solver = s.Name()
	}
	r := sys.Vector("rich:r")
	c := sys.Vector("rich:c")
	ax := sys.Vector("rich:ax")

	bnorm2 := ts.Dot(b, b)
	var (
		iter      int
		relres    = math.Inf(1)
		bnormHost float64
		stop      bool
		g         *guard

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
	ts.HostCallback("rich:init", func() error {
		iter, stop = 0, false
		abftBest, abftReason = math.Inf(1), ""
		bnormHost = math.Sqrt(bnorm2.Value())
		if bnormHost == 0 {
			bnormHost = 1
		}
		relres = math.Inf(1)
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
			ts.If(func() bool { return g.pending }, func() {
				ts.HostCallback("rich:restore", func() error {
					ci, err := g.restore()
					iter = ci
					return err
				})
			}, nil)
		}
		sys.SpMV(ax, x)
		r.Assign(tensordsl.Sub(b, ax))
		s.Pre.ApplyStep(c, r)
		x.Assign(tensordsl.Add(x, c))
		res2 := ts.Dot(r, r)
		ts.HostCallback("rich:monitor", func() error {
			iter++
			if reason := residualCheck(res2.Value()); reason != "" {
				fail(reason)
			} else {
				relres = math.Sqrt(res2.Value()) / bnormHost
				// Richardson's residual is the true residual, freshly
				// computed: checkpoint on the configured cadence without a
				// shadow verification pass.
				if g != nil && g.due(iter) {
					g.save(iter)
				}
			}
			if abftOn {
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
	})
	if abftOn {
		sys.scheduleABFTVerify("rich", x, b, s.Tol,
			func() bool { return s.Tol > 0 && relres <= s.Tol },
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
	ts.HostCallback("rich:done", func() error {
		converged := s.Tol > 0 && relres <= s.Tol
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
		if abftOn && s.Tol > 0 && abftReason != "" && !converged && (g == nil || !g.failed) {
			return abftBreakdownError(s.Name(), abftReason, iter)
		}
		return nil
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
