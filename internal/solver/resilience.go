package solver

import "math"

// Recovery is the resilience policy of a solver: periodically checkpoint the
// Krylov state into host buffers, verify it against a freshly computed shadow
// residual, and on breakdown (ρ→0, pᵀAp≤0, NaN/Inf residual, drifted shadow
// residual) restart the iteration from the last verified checkpoint —
// escalating to the Fallback solver once the restart budget is spent.
//
// A solver with a nil Recovery behaves exactly as the unhardened seed: its
// scheduled program, cycle counts and iteration counts are bit-identical.
type Recovery struct {
	// Interval is the checkpoint/verification period in iterations
	// (default 10). Every Interval iterations the solver computes a shadow
	// residual r = b − A·x with a scheduled SpMV; a healthy state is
	// checkpointed, a drifted or non-finite one triggers a restart.
	Interval int
	// MaxRestarts is the restart budget (default 3). Once spent, a further
	// breakdown fails the solve: with a Fallback it is scheduled on the
	// restored checkpoint, without one the solve reports ErrBreakdown.
	MaxRestarts int
	// Fallback, when set, builds the escalation solver (e.g. PBiCGStab →
	// Richardson+ILU) run after the restart budget is exhausted.
	Fallback func() Solver
}

func (r *Recovery) interval() int {
	if r.Interval > 0 {
		return r.Interval
	}
	return 10
}

func (r *Recovery) maxRestarts() int {
	if r.MaxRestarts > 0 {
		return r.MaxRestarts
	}
	return 3
}

// maxBody bounds the While-body executions of a recovering solver: each
// restart may replay up to a full budget of iterations, plus one body
// execution per restart for the restore branch itself.
func (r *Recovery) maxBody(maxIter int) int {
	return (maxIter+1)*(r.maxRestarts()+1) + r.maxRestarts()
}

// guard is the host-side state machine of one recovering solve. All methods
// run inside host callbacks, in program order.
type guard struct {
	rec *Recovery
	x   Tensor
	st  *RunStats

	ckpt       []float64 // last verified solution (host copy)
	ckptIter   int
	lastShadow float64 // shadow residual at the last verified checkpoint
	restarts   int
	pending    bool // a restore branch should fire at the next loop entry
	failed     bool // restart budget spent
	stagnant   bool // a restart replayed into the same scalar wall (benign)
	reason     string
	failIter   int
	failRel    float64 // recursion residual at the last trip
}

func newGuard(rec *Recovery, x Tensor, st *RunStats) *guard {
	return &guard{rec: rec, x: x, st: st}
}

// reset re-arms the guard and captures the initial guess as the first
// checkpoint (called from the solver's init callback at run time).
func (g *guard) reset() {
	g.restarts, g.pending, g.failed, g.stagnant = 0, false, false, false
	g.reason, g.failIter, g.failRel = "", 0, 0
	g.lastShadow = 0
	g.save(0)
}

// save checkpoints the current solution.
func (g *guard) save(iter int) {
	g.ckpt = g.x.Host()
	g.ckptIter = iter
}

// due reports whether a shadow verification is due at iteration iter.
func (g *guard) due(iter int) bool {
	return iter > 0 && iter%g.rec.interval() == 0 && iter != g.ckptIter
}

// trip records a breakdown at iteration iter, with rel the recursion relative
// residual at the detection. It returns true when a restart is pending
// (budget remained) and false when no further restart will fire — either the
// budget is spent, or the breakdown is deterministic scalar stagnation that a
// restart provably cannot cure.
func (g *guard) trip(reason string, iter int, rel float64) bool {
	if scalarBreakdown(reason) && (rel <= scalarFloor ||
		(g.restarts > 0 && scalarBreakdown(g.reason) && rel > g.failRel/2)) {
		// Scalar stagnation, not a fault, on either of two signatures. A
		// recursion residual already below scalarFloor is beyond anything the
		// float32 recursion can genuinely resolve — the correction solve is
		// as converged as the precision allows and the underflowing scalar is
		// its natural end. Or: a previous restart already rewound x and
		// rebuilt the Krylov basis from a fresh shadow residual, and a
		// recursion scalar still underflowed with the residual flat since the
		// last wall (no 2x improvement) — each further restart only creeps
		// the wall forward a few iterations. Either way a restart provably
		// buys nothing, so stop the iteration the way the unhardened solver
		// does instead of burning the budget into a hard failure — unless a
		// fallback is configured, in which case the escalation path is the
		// productive next move.
		g.reason, g.failIter, g.failRel = reason, iter, rel
		g.stagnant = true
		if g.st != nil {
			g.st.Stagnated = true
		}
		if g.rec.Fallback != nil {
			g.failed = true
		}
		return false
	}
	g.reason, g.failIter, g.failRel = reason, iter, rel
	if g.restarts >= g.rec.maxRestarts() {
		g.failed = true
		return false
	}
	g.restarts++
	g.pending = true
	if g.st != nil {
		g.st.Restarts = g.restarts
	}
	return true
}

// restore rewinds the solution to the last verified checkpoint and returns
// its iteration number.
func (g *guard) restore() (int, error) {
	g.pending = false
	return g.ckptIter, g.x.SetHost(g.ckpt)
}

// verify cross-checks the recursion residual against the freshly computed
// shadow residual. A healthy state is checkpointed; a non-finite or badly
// drifted one (silent corruption of the Krylov vectors) trips the guard.
// The drift test is deliberately loose — the float32 recursion residual
// legitimately departs from the true residual near stagnation — and only
// fires when the shadow residual is both two orders of magnitude off the
// recursion AND has jumped an order of magnitude since the last verified
// checkpoint. Stagnation leaves the shadow residual flat, so it never trips;
// a silent corruption of x makes it jump while the recursion (updated
// independently of x) stays clean-looking, which is exactly the signature
// the jump test detects. The first verification establishes the baseline.
func (g *guard) verify(iter int, shadowRel, recursionRel float64) {
	if math.IsNaN(shadowRel) || math.IsInf(shadowRel, 0) {
		g.trip("shadow-residual", iter, recursionRel)
		return
	}
	if g.lastShadow > 0 && shadowRel > 100*recursionRel && shadowRel > 10*g.lastShadow {
		g.trip("residual-drift", iter, recursionRel)
		return
	}
	g.lastShadow = shadowRel
	g.save(iter)
}

// breakdownError builds the typed error reported when the budget is spent
// without convergence.
func (g *guard) breakdownError(solver string) *ErrBreakdown {
	return &ErrBreakdown{Solver: solver, Reason: g.reason, Iter: g.failIter, Restarts: g.restarts}
}

// scalarFloor is the relative residual below which a float32 Krylov recursion
// cannot represent genuine convergence state (float32 machine epsilon is
// ~1.2e-7; three orders of magnitude past it the residual vector has
// underflowed into denormals). A recursion-scalar watchdog firing down there
// is the method's natural stagnation end, never a recoverable fault.
const scalarFloor = 1e-10

// scalarBreakdown reports whether a breakdown reason names one of the Krylov
// recursion scalars. These watchdogs fire on underflow of a float32 recursion
// quantity, which near convergence is the natural stagnation floor of the
// method rather than evidence of corruption — the distinction the guard's
// futility test relies on.
func scalarBreakdown(reason string) bool {
	switch reason {
	case "rho", "gamma", "omega", "indefinite":
		return true
	}
	return false
}

// residualCheck classifies a squared-residual reading. It returns the tag of
// the watchdog that fired ("" when the value is healthy).
func residualCheck(res2 float64) string {
	switch {
	case math.IsNaN(res2):
		return "nan-residual"
	case math.IsInf(res2, 0) || res2 < 0:
		return "divergence"
	}
	return ""
}

// WithRecovery attaches a Recovery policy to a solver that supports one and
// reports whether it did. It is the config layer's hook: the solver types
// keep their policy field exported for direct construction.
func WithRecovery(s Solver, rec *Recovery) bool {
	if rec == nil {
		return false
	}
	switch v := s.(type) {
	case *PBiCGStab:
		v.Recover = rec
	case *CG:
		v.Recover = rec
	case *Richardson:
		v.Recover = rec
	default:
		return false
	}
	return true
}
