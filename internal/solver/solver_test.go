package solver

import (
	"math"
	"math/rand"
	"testing"

	"ipusparse/internal/ipu"
	"ipusparse/internal/partition"
	"ipusparse/internal/sparse"
	"ipusparse/internal/tensordsl"
)

// testSystem builds a session+system over the matrix with the given tile
// count.
func testSystem(t *testing.T, m *sparse.Matrix, tiles int) (*tensordsl.Session, *System) {
	t.Helper()
	cfg := ipu.DefaultConfig()
	cfg.TilesPerChip = tiles
	mach, err := ipu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := tensordsl.NewSession(mach)
	p := partition.Contiguous(m, tiles)
	sys, err := NewSystem(sess, m, p)
	if err != nil {
		t.Fatal(err)
	}
	return sess, sys
}

// trueRelRes computes ||b - A32 x||2 / ||b||2 in float64 against the
// float32-rounded matrix — the system the device actually solves.
func trueRelRes(m *sparse.Matrix, x, b []float64) float64 {
	var rn, bn float64
	for i := 0; i < m.N; i++ {
		s := float64(float32(m.Diag[i])) * x[i]
		lo, hi := m.RowRange(i)
		for k := lo; k < hi; k++ {
			s += float64(float32(m.Vals[k])) * x[m.Cols[k]]
		}
		r := b[i] - s
		rn += r * r
		bn += b[i] * b[i]
	}
	return math.Sqrt(rn) / math.Sqrt(bn)
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestDistributedSpMVMatchesHost(t *testing.T) {
	for _, tc := range []struct {
		name  string
		m     *sparse.Matrix
		tiles int
	}{
		{"poisson2d", sparse.Poisson2D(12, 12), 8},
		{"poisson3d", sparse.Poisson3D(5, 5, 5), 16},
		{"random", sparse.RandomSPD(150, 6, 4), 8},
		{"stencil27", sparse.Stencil27(5, 5, 4), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, sys := testSystem(t, tc.m, tc.tiles)
			x := sys.Vector("x")
			y := sys.Vector("y")
			xh := randVec(tc.m.N, 1)
			if err := sys.SetGlobal(x, xh); err != nil {
				t.Fatal(err)
			}
			sys.SpMV(y, x)
			if _, err := sess.Run(); err != nil {
				t.Fatal(err)
			}
			got := sys.GetGlobal(y)
			want := make([]float64, tc.m.N)
			tc.m.MulVec(xh, want)
			for i := range want {
				// float32 device arithmetic: allow rounding slack.
				if math.Abs(got[i]-want[i]) > 1e-4*(1+math.Abs(want[i])) {
					t.Fatalf("row %d: got %v want %v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestSetGetGlobalRoundTrip(t *testing.T) {
	m := sparse.Poisson2D(8, 8)
	_, sys := testSystem(t, m, 8)
	x := sys.Vector("x")
	v := randVec(m.N, 2)
	if err := sys.SetGlobal(x, v); err != nil {
		t.Fatal(err)
	}
	got := sys.GetGlobal(x)
	for i := range v {
		if math.Abs(got[i]-v[i]) > 1e-6 {
			t.Fatalf("slot %d", i)
		}
	}
	if err := sys.SetGlobal(x, v[:3]); err == nil {
		t.Error("expected length error")
	}
}

func TestPBiCGStabJacobiSolvesPoisson(t *testing.T) {
	m := sparse.Poisson2D(16, 16)
	sess, sys := testSystem(t, m, 8)
	x := sys.Vector("x")
	b := sys.Vector("b")
	// b = A * ones, so the solution is ones.
	ones := make([]float64, m.N)
	for i := range ones {
		ones[i] = 1
	}
	bh := make([]float64, m.N)
	m.MulVec(ones, bh)
	sys.SetGlobal(b, bh)

	s := &PBiCGStab{Sys: sys, Pre: &Jacobi{Sys: sys}, MaxIter: 300, Tol: 1e-5, SetupPre: true}
	var st RunStats
	s.ScheduleSolve(x, b, &st)
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("did not converge: %+v iters=%d relres=%g", st.Converged, st.Iterations, st.RelRes)
	}
	xh := sys.GetGlobal(x)
	if rr := trueRelRes(m, xh, bh); rr > 1e-4 {
		t.Errorf("true residual %g too large", rr)
	}
	for i := range xh {
		if math.Abs(xh[i]-1) > 1e-2 {
			t.Fatalf("x[%d] = %v, want 1", i, xh[i])
		}
	}
	if len(st.History) != st.Iterations {
		t.Errorf("history %d entries for %d iterations", len(st.History), st.Iterations)
	}
}

func TestPBiCGStabILUFasterThanJacobi(t *testing.T) {
	m := sparse.Poisson2D(20, 20)
	run := func(pre func(sys *System) Preconditioner) int {
		sess, sys := testSystem(t, m, 4)
		x := sys.Vector("x")
		b := sys.Vector("b")
		bh := randVec(m.N, 3)
		sys.SetGlobal(b, bh)
		s := &PBiCGStab{Sys: sys, Pre: pre(sys), MaxIter: 500, Tol: 1e-5, SetupPre: true}
		var st RunStats
		s.ScheduleSolve(x, b, &st)
		if _, err := sess.Run(); err != nil {
			t.Fatal(err)
		}
		if !st.Converged {
			t.Fatalf("no convergence (%s): relres %g", s.Name(), st.RelRes)
		}
		return st.Iterations
	}
	jac := run(func(sys *System) Preconditioner { return &Jacobi{Sys: sys} })
	ilu := run(func(sys *System) Preconditioner { return &ILU{Sys: sys} })
	if ilu >= jac {
		t.Errorf("ILU(0) (%d iters) should beat Jacobi (%d iters)", ilu, jac)
	}
}

func TestDILUConverges(t *testing.T) {
	m := sparse.Poisson2D(14, 14)
	sess, sys := testSystem(t, m, 4)
	x := sys.Vector("x")
	b := sys.Vector("b")
	bh := randVec(m.N, 5)
	sys.SetGlobal(b, bh)
	s := &PBiCGStab{Sys: sys, Pre: &DILU{Sys: sys}, MaxIter: 400, Tol: 1e-5, SetupPre: true}
	var st RunStats
	s.ScheduleSolve(x, b, &st)
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("DILU did not converge: relres %g after %d", st.RelRes, st.Iterations)
	}
}

func TestGaussSeidelPrecondAndSolver(t *testing.T) {
	m := sparse.Poisson2D(12, 12)
	// As preconditioner inside PBiCGStab.
	sess, sys := testSystem(t, m, 4)
	x := sys.Vector("x")
	b := sys.Vector("b")
	bh := randVec(m.N, 7)
	sys.SetGlobal(b, bh)
	s := &PBiCGStab{Sys: sys, Pre: &GaussSeidel{Sys: sys, Symmetric: true}, MaxIter: 300, Tol: 1e-5, SetupPre: true}
	var st RunStats
	s.ScheduleSolve(x, b, &st)
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("GS-preconditioned BiCGStab did not converge: %g", st.RelRes)
	}

	// As standalone solver (diagonally dominant => converges).
	md := sparse.RandomSPD(120, 4, 11)
	sess2, sys2 := testSystem(t, md, 4)
	x2 := sys2.Vector("x")
	b2 := sys2.Vector("b")
	bh2 := randVec(md.N, 8)
	sys2.SetGlobal(b2, bh2)
	gs := NewGaussSeidelSolver(sys2, 2, 500, 1e-5)
	var st2 RunStats
	gs.ScheduleSolve(x2, b2, &st2)
	if _, err := sess2.Run(); err != nil {
		t.Fatal(err)
	}
	if !st2.Converged {
		t.Fatalf("Gauss-Seidel solver did not converge: %g after %d", st2.RelRes, st2.Iterations)
	}
	if rr := trueRelRes(md, sys2.GetGlobal(x2), bh2); rr > 1e-4 {
		t.Errorf("GS true residual %g", rr)
	}
}

func TestGaussSeidelDivergenceIsBreakdown(t *testing.T) {
	// Off-diagonals three times the diagonal: Gauss-Seidel sweeps grow the
	// error geometrically until the float32 residual overflows. The monitor's
	// NaN/Inf watchdog must end the solve as a breakdown, not let a NaN
	// relative residual end it silently or an Inf one run to MaxIter.
	const n, maxIter = 24, 1000
	mb := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		mb.Add(i, i, 1)
		if i+1 < n {
			mb.Add(i, i+1, 3)
			mb.Add(i+1, i, 3)
		}
	}
	m, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	sess, sys := testSystem(t, m, 2)
	x := sys.Vector("x")
	b := sys.Vector("b")
	sys.SetGlobal(b, randVec(n, 3))
	var st RunStats
	NewGaussSeidelSolver(sys, 1, maxIter, 1e-6).ScheduleSolve(x, b, &st)
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if !st.Breakdown || (st.BreakdownReason != "divergence" && st.BreakdownReason != "nan-residual") ||
		st.Iterations >= maxIter || st.Converged {
		t.Fatalf("diverging Gauss-Seidel: breakdown=%v (%q) after %d of %d iterations, converged=%v",
			st.Breakdown, st.BreakdownReason, st.Iterations, maxIter, st.Converged)
	}
	t.Logf("%s after %d iterations", st.BreakdownReason, st.Iterations)
}

func TestRichardsonWithILU(t *testing.T) {
	m := sparse.Poisson2D(10, 10)
	sess, sys := testSystem(t, m, 2)
	x := sys.Vector("x")
	b := sys.Vector("b")
	bh := randVec(m.N, 9)
	sys.SetGlobal(b, bh)
	s := &Richardson{Sys: sys, Pre: &ILU{Sys: sys}, MaxIter: 300, Tol: 1e-5, SetupPre: true}
	var st RunStats
	s.ScheduleSolve(x, b, &st)
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("Richardson+ILU did not converge: %g", st.RelRes)
	}
}

func TestNestedSolverAsPreconditioner(t *testing.T) {
	// The paper's nesting feature: BiCGStab preconditioned by a few
	// Jacobi-Richardson iterations.
	m := sparse.Poisson2D(12, 12)
	sess, sys := testSystem(t, m, 4)
	x := sys.Vector("x")
	b := sys.Vector("b")
	bh := randVec(m.N, 13)
	sys.SetGlobal(b, bh)
	jac := &Jacobi{Sys: sys}
	jac.SetupStep()
	pre := &SolverPrecond{
		Iter: 3,
		Make: func(maxIter int) Solver {
			return &Richardson{Sys: sys, Pre: jac, MaxIter: maxIter}
		},
	}
	s := &PBiCGStab{Sys: sys, Pre: pre, MaxIter: 300, Tol: 1e-5}
	var st RunStats
	s.ScheduleSolve(x, b, &st)
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("nested configuration did not converge: %g", st.RelRes)
	}
}

// TestMPIRBeatsPlainIR is the paper's central numerical claim (Figs. 9/10):
// plain single-precision IR stalls around 1e-6..1e-7 relative residual, while
// MPIR with double-word extended precision reaches ~1e-12 and MPIR with
// soft-double goes further.
func TestMPIRBeatsPlainIR(t *testing.T) {
	m := sparse.Poisson2D(24, 24)
	bh := make([]float64, m.N)
	ones := make([]float64, m.N)
	for i := range ones {
		ones[i] = 1 + 0.25*math.Sin(float64(i))
	}
	m.MulVec(ones, bh)

	run := func(ext ipu.Scalar) float64 {
		sess, sys := testSystem(t, m, 4)
		mp := &MPIR{
			Sys:     sys,
			ExtType: ext,
			MakeInner: func(maxIter int) (Solver, *float64) {
				return &PBiCGStab{Sys: sys, Pre: &Jacobi{Sys: sys}, MaxIter: maxIter, Tol: 1e-30}, nil
			},
			InnerIters: 60,
			MaxOuter:   12,
			Tol:        1e-14,
		}
		dt := ext
		x := sys.VectorTyped("x", dt)
		b := sys.VectorTyped("b", dt)
		// Preconditioner setup must precede the loop.
		jac := &Jacobi{Sys: sys}
		jac.SetupStep()
		mp.MakeInner = func(maxIter int) (Solver, *float64) {
			return &PBiCGStab{Sys: sys, Pre: jac, MaxIter: maxIter, Tol: 1e-30}, nil
		}
		sys.SetGlobal(b, bh)
		var st RunStats
		mp.ScheduleSolve(x, b, &st)
		if _, err := sess.Run(); err != nil {
			t.Fatal(err)
		}
		return trueRelRes(m, sys.GetGlobal(x), bh)
	}

	plain := run(ipu.F32)
	dw := run(ipu.DW)
	dp := run(ipu.F64)
	t.Logf("true relres: IR-f32=%.2e MPIR-DW=%.2e MPIR-DP=%.2e", plain, dw, dp)
	if plain < 1e-9 {
		t.Errorf("plain IR unexpectedly accurate (%.2e); f32 should stall", plain)
	}
	if dw > 1e-10 {
		t.Errorf("MPIR-DW stalled at %.2e, want < 1e-10", dw)
	}
	if dp > 1e-12 {
		t.Errorf("MPIR-DP stalled at %.2e, want < 1e-12", dp)
	}
	if !(dp <= dw*10) {
		t.Errorf("MPIR-DP (%.2e) should be at least as accurate as MPIR-DW (%.2e)", dp, dw)
	}
}

// TestCorrectionTol pins MPIR's inner stopping rule max(16u, ½·τ/ρ): the
// floor, the exact loose branch, a tolerance below ½ whenever a correction
// runs (ρ > τ), and the floor for τ ≤ 0 and for a ρ that is not finite.
func TestCorrectionTol(t *testing.T) {
	for _, c := range []struct {
		name     string
		tau, rho float64
		want     float64 // 0: only the ρ > τ bound is checked
	}{
		{"floor at the first step", 1e-9, 1, CorrectionTol},
		{"floor where ½·τ/ρ meets 16u", 1e-9, 0.5e-9 / CorrectionTol, CorrectionTol},
		{"floor just below the crossover", 1e-9, 1e-3, CorrectionTol},
		{"loose branch", 1e-9, 1.9e-6, 0.5 * 1e-9 / 1.9e-6},
		{"loose branch, tiny residual", 1e-9, 1e-8, 0.05},
		{"just above tau", 1e-9, 1.0000001e-9, 0},
		{"barely above tau", 1e-13, math.Nextafter(1e-13, 1), 0},
		{"tau zero", 0, 1e-6, CorrectionTol},
		{"tau negative", -1, 1e-6, CorrectionTol},
		{"rho +Inf", 1e-9, math.Inf(1), CorrectionTol},
		{"rho NaN", 1e-9, math.NaN(), CorrectionTol},
		{"rho zero", 1e-9, 0, CorrectionTol},
	} {
		got := correctionTol(c.tau, c.rho)
		if c.want != 0 && got != c.want {
			t.Errorf("%s: correctionTol(%g, %g) = %g, want %g", c.name, c.tau, c.rho, got, c.want)
		}
		if got < CorrectionTol {
			t.Errorf("%s: correctionTol(%g, %g) = %g is below the 16u floor", c.name, c.tau, c.rho, got)
		}
		if c.rho > c.tau && c.tau > 0 && !(got < 0.5) {
			t.Errorf("%s: correctionTol(%g, %g) = %g, want < ½ while ρ > τ", c.name, c.tau, c.rho, got)
		}
	}
}

func TestProfileLabelsTableIV(t *testing.T) {
	// An MPIR+PBiCGStab+ILU(0) run must produce exactly the Table IV
	// operation classes (plus Exchange and the factorization). The matrix
	// must be large enough that per-superstep sync does not drown the
	// compute shares.
	m := sparse.Poisson2D(48, 48)
	sess, sys := testSystem(t, m, 4)
	ilu := &ILU{Sys: sys}
	ilu.SetupStep()
	mp := &MPIR{
		Sys:     sys,
		ExtType: ipu.DW,
		MakeInner: func(maxIter int) (Solver, *float64) {
			return &PBiCGStab{Sys: sys, Pre: ilu, MaxIter: maxIter, Tol: 1e-30}, nil
		},
		InnerIters: 10,
		MaxOuter:   3,
		Tol:        1e-13,
	}
	x := sys.VectorTyped("x", ipu.DW)
	b := sys.VectorTyped("b", ipu.DW)
	bh := randVec(m.N, 17)
	sys.SetGlobal(b, bh)
	var st RunStats
	mp.ScheduleSolve(x, b, &st)
	eng, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"ILU(0) Solve", "SpMV", "Reduce", "Elementwise Ops", "Extended-Precision Ops", "Exchange"} {
		if eng.Profile[label] == 0 {
			t.Errorf("missing profile label %q (profile: %v)", label, eng.Profile)
		}
	}
	// ILU solve should dominate the compute classes (Table IV shape).
	if eng.Profile["ILU(0) Solve"] < eng.Profile["Elementwise Ops"] {
		t.Error("ILU(0) Solve should dominate Elementwise Ops")
	}
}

func TestZeroRhsConvergesImmediately(t *testing.T) {
	// b = 0 with x0 = 0: the initial residual is already zero, so the loop
	// must exit before the first iteration (early exit due to convergence,
	// one of the guards Fig. 4's condensed listing omits).
	m := sparse.Poisson2D(6, 6)
	sess, sys := testSystem(t, m, 2)
	x := sys.Vector("x")
	b := sys.Vector("b")
	s := &PBiCGStab{Sys: sys, MaxIter: 10, Tol: 1e-5}
	var st RunStats
	s.ScheduleSolve(x, b, &st)
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 0 || !st.Converged {
		t.Errorf("expected immediate convergence on zero rhs, got %+v", st)
	}
}

func TestSystemRejectsWrongPartition(t *testing.T) {
	m := sparse.Poisson2D(6, 6)
	cfg := ipu.DefaultConfig()
	cfg.TilesPerChip = 8
	mach, _ := ipu.New(cfg)
	sess := tensordsl.NewSession(mach)
	p := partition.Contiguous(m, 4) // != 8 tiles
	if _, err := NewSystem(sess, m, p); err == nil {
		t.Error("expected partition/tiles mismatch error")
	}
}

func TestExchangeOnlyWhenNeeded(t *testing.T) {
	// A single-tile system has no separator regions: SpMV must schedule no
	// exchange moves.
	m := sparse.Poisson2D(8, 8)
	sess, sys := testSystem(t, m, 1)
	x := sys.Vector("x")
	y := sys.Vector("y")
	xh := randVec(m.N, 19)
	sys.SetGlobal(x, xh)
	sys.SpMV(y, x)
	eng, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if eng.M.Stats().Exchanges != 0 {
		t.Errorf("single tile should need no exchanges, got %d", eng.M.Stats().Exchanges)
	}
}
