package solver

import (
	"math"

	"ipusparse/internal/tensordsl"
)

// loop is the one iteration driver behind CG, PBiCGStab, Richardson and the
// standalone Gauss-Seidel solver: the paper's Fig. 4 While, whose host-side
// condition reads a device scalar, with a monitor and the method's updates
// inside it. It owns everything around the recurrence: the host control
// state, the init, restart, monitor, shadow-verify, fallback, ABFT
// final-verify and done steps, and the breakdown bookkeeping behind them.
// A method allocates its vectors and scalars, schedules its setup, calls
// start, sets restart (and exact) and hands run its recurrence. Host calls
// are named after the method's prefix (cg:monitor, bicg:verify, rich:done).
type loop struct {
	sys     *System
	name    string // host-call prefix
	solver  string // the method's Name(), carried by typed breakdowns
	x, b    Tensor
	st      *RunStats
	maxIter int
	tol     *float64 // read at run time: MPIR retunes its correction solves
	monitor func(iter int)
	rec     *Recovery
	g       *guard // nil without a Recovery policy

	// restart, when set, schedules what a checkpoint restore must recompute
	// (true residual, search directions, recursion scalars) and returns the
	// squared residual and the host reseed of the recursion scalars. A method
	// without one recomputes its residual from x every iteration: its monitor
	// checkpoints healthy states directly, it needs no shadow verification,
	// and it is itself the escalation target, so no fallback follows it.
	restart func() (res2 Tensor, reseed func())
	// exact marks a method whose monitored residual is b − A·x of the very
	// iterate it returns, so a converged claim needs no final ABFT verify.
	exact bool

	// Host control state, reset by the init callback of every run.
	iter       int
	relres     float64
	bnorm      float64
	stop       bool
	fellback   bool
	fbSt       RunStats
	abftBest   float64
	abftReason string
}

// newLoop binds the driver to one method's solve of A x = b; st may be nil
// (a solve nested as a preconditioner reports nothing).
func newLoop(sys *System, name, solver string, x, b Tensor, st *RunStats,
	maxIter int, tol *float64, monitor func(int), rec *Recovery) *loop {
	if st != nil {
		st.Solver = solver
	}
	l := &loop{sys: sys, name: name, solver: solver, x: x, b: b, st: st,
		maxIter: maxIter, tol: tol, monitor: monitor, rec: rec}
	if rec != nil {
		l.g = newGuard(rec, x, st)
	}
	return l
}

// bnormOf is ‖b‖ from its square under the one rule every method shares: a
// zero right-hand side measures the absolute residual instead.
func bnormOf(bnorm2 float64) float64 {
	if v := math.Sqrt(bnorm2); v != 0 {
		return v
	}
	return 1
}

// relResidual reads a squared-residual dot: the tag of the watchdog that
// fired (residualCheck), or else the relative residual.
func relResidual(res2, bnorm float64) (float64, string) {
	if reason := residualCheck(res2); reason != "" {
		return 0, reason
	}
	return math.Sqrt(res2) / bnorm, ""
}

func (l *loop) converged() bool { return *l.tol > 0 && l.relres <= *l.tol }

// fail reports a breakdown detected at the current iteration: without a
// Recovery policy it stops the loop; with one it arms a checkpoint restart
// until the budget is spent.
func (l *loop) fail(reason string) {
	if l.st != nil {
		l.st.Breakdown = true
		l.st.BreakdownReason = reason
	}
	if l.g == nil || !l.g.trip(reason, l.iter, l.relres) {
		l.stop = true
	}
}

// start schedules the init callback. bnorm2 is the method's ‖b‖² dot; first,
// when set, runs in the callback after l.bnorm is known, reseeds whatever host
// state the method keeps and returns the relative residual of the initial
// guess (+Inf when the method has no reading before its first iteration).
func (l *loop) start(bnorm2 Tensor, first func() float64) {
	l.sys.Sess.HostCallback(l.name+":init", func() error {
		l.iter, l.stop, l.fellback = 0, false, false
		l.abftBest, l.abftReason = math.Inf(1), ""
		l.fbSt.ResetForRun()
		l.bnorm = bnormOf(bnorm2.Value())
		l.relres = math.Inf(1)
		if first != nil {
			l.relres = first()
		}
		l.st.ResetForRun()
		if l.g != nil {
			l.g.reset()
		}
		return nil
	})
}

// run schedules the loop around body, which schedules one iteration of the
// recurrence and returns the squared residual its monitor reads, and then
// the fallback, the final verification and the done callback.
func (l *loop) run(body func() (res2 Tensor)) {
	sys, ts, g := l.sys, l.sys.Sess, l.g
	abftOn := sys.ABFTEnabled()
	maxBody := l.maxIter + 1
	if g != nil {
		maxBody = l.rec.maxBody(l.maxIter)
	}
	cond := func() bool {
		if g != nil && g.pending {
			return true // a checkpoint restore is due; keep the loop alive
		}
		return !l.stop && l.iter < l.maxIter && (*l.tol <= 0 || l.relres > *l.tol)
	}
	ts.While(cond, maxBody, func() {
		if g != nil {
			// Restart branch: rewind x to the last verified checkpoint and
			// rebuild the recursion. It costs nothing unless a watchdog
			// tripped.
			ts.If(func() bool { return g.pending }, func() {
				ts.HostCallback(l.name+":restore", func() error {
					ci, err := g.restore()
					l.iter = ci
					return err
				})
				if l.restart == nil {
					return
				}
				res2, reseed := l.restart()
				ts.HostCallback(l.name+":restart-scalars", func() error {
					reseed()
					l.relres = math.Sqrt(res2.Value()) / l.bnorm
					return nil
				})
			}, nil)
		}
		res2 := body()
		ts.HostCallback(l.name+":monitor", func() error {
			l.iter++
			// NaN/Inf divergence watchdog: a residual that blew up is a
			// breakdown, not something to iterate on.
			if rel, reason := relResidual(res2.Value(), l.bnorm); reason != "" {
				l.fail(reason)
			} else {
				l.relres = rel
				if l.restart == nil && g != nil && g.due(l.iter) {
					g.save(l.iter)
				}
			}
			if abftOn {
				// Consume a checksum detection from this iteration's SpMVs,
				// or trip the dot-kernel divergence guard; either routes
				// through fail so Recovery can checkpoint-restart.
				if reason := sys.abftConsume(); reason != "" {
					l.abftReason = reason
					l.fail(reason)
				} else if reason := abftMonotonicity(l.relres, l.abftBest); reason != "" {
					sys.abftNote("dot")
					l.abftReason = reason
					l.fail(reason)
				}
				if l.relres < l.abftBest {
					l.abftBest = l.relres
				}
			}
			if l.st != nil {
				l.st.Iterations = l.iter
				l.st.RelRes = l.relres
				l.st.record(l.iter, l.relres, sys.Sess.M.Stats().Seconds)
			}
			if l.monitor != nil {
				l.monitor(l.iter)
			}
			return nil
		})
		if g != nil && l.restart != nil {
			// Shadow-residual verification: every Interval iterations compute
			// the true residual with a scheduled SpMV, checkpoint healthy
			// states, trip on silent drift.
			sax := sys.Vector(l.name + ":sax")
			shadow := sys.Vector(l.name + ":shadow")
			ts.If(func() bool { return !g.pending && !l.stop && g.due(l.iter) }, func() {
				sys.SpMV(sax, l.x)
				shadow.Assign(tensordsl.Sub(l.b, sax))
				sd := ts.Dot(shadow, shadow)
				ts.HostCallback(l.name+":verify", func() error {
					g.verify(l.iter, math.Sqrt(sd.Value())/l.bnorm, l.relres)
					if g.failed || g.pending {
						if l.st != nil {
							l.st.Breakdown = true
							l.st.BreakdownReason = g.reason
						}
						l.stop = l.stop || g.failed
					}
					return nil
				})
			}, nil)
		}
	})
	// Escalation: once the restart budget is spent without convergence, rerun
	// from the last checkpoint with the configured fallback solver.
	if g != nil && l.restart != nil && l.rec.Fallback != nil {
		ts.If(func() bool { return g.failed && !l.converged() }, func() {
			ts.HostCallback(l.name+":fallback", func() error {
				l.fellback = true
				_, err := g.restore()
				return err
			})
			l.rec.Fallback().ScheduleSolve(l.x, l.b, &l.fbSt)
		}, nil)
	}
	if abftOn && !l.exact {
		// Final verification: a converged ABFT solve must prove its answer
		// with a freshly scheduled residual before it is believed.
		sys.scheduleABFTVerify(l.name, l.x, l.b, *l.tol,
			func() bool { return !l.fellback && l.converged() },
			func() float64 { return l.bnorm },
			func(trueRel float64) {
				l.abftReason = "abft-final-verify"
				l.relres = trueRel
				if l.st != nil {
					l.st.Breakdown = true
					l.st.BreakdownReason = l.abftReason
				}
			})
	}
	ts.HostCallback(l.name+":done", func() error {
		converged := l.converged()
		st := l.st
		if l.fellback {
			converged = l.fbSt.Converged
			if st != nil {
				st.Iterations = l.iter + l.fbSt.Iterations
				st.RelRes = l.fbSt.RelRes
				st.History = append(st.History, l.fbSt.History...)
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
			return g.breakdownError(l.solver)
		}
		// An ABFT detection that was neither recovered nor out-converged is a
		// typed breakdown — never a silently wrong (or silently absent) answer.
		if abftOn && *l.tol > 0 && l.abftReason != "" && !converged && (g == nil || !g.failed) {
			return abftBreakdownError(l.solver, l.abftReason, l.iter)
		}
		return nil
	})
}
