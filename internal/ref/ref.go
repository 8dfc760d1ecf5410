// Package ref provides float64 reference implementations of the kernels and
// solvers, playing two roles in the reproduction:
//
//   - correctness oracles for the simulated-IPU solvers, and
//   - the CPU/GPU baseline ("HYPRE with cuSPARSE" in the paper's Fig. 7/8):
//     native double precision, a *global* ILU(0) factorization (no domain
//     decomposition), and BiCGStab. Iteration counts measured here feed the
//     platform cost models, so the fig8 comparison uses measured — not
//     assumed — preconditioner quality differences.
package ref

import (
	"fmt"
	"math"

	"ipusparse/internal/sparse"
)

// SpMV computes y = A*x (sequential).
func SpMV(m *sparse.Matrix, x, y []float64) { m.MulVec(x, y) }

// Dot returns the inner product.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm.
func Norm2(a []float64) float64 { return math.Sqrt(Dot(a, a)) }

// Axpy computes y += alpha*x.
func Axpy(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// ILU0 is a global (whole-matrix) zero-fill incomplete LU factorization.
type ILU0 struct {
	n      int
	rowPtr []int
	cols   []int
	vals   []float64 // L strictly lower (unit diag), U upper off-diag
	diag   []float64 // U diagonal
}

// NewILU0 factors the matrix. It fails if a pivot collapses to zero.
func NewILU0(m *sparse.Matrix) (*ILU0, error) {
	f := &ILU0{
		n:      m.N,
		rowPtr: m.RowPtr,
		cols:   m.Cols,
		vals:   append([]float64(nil), m.Vals...),
		diag:   append([]float64(nil), m.Diag...),
	}
	pos := make([]int, m.N)
	for i := range pos {
		pos[i] = -1
	}
	for i := 0; i < m.N; i++ {
		lo, hi := f.rowPtr[i], f.rowPtr[i+1]
		for k := lo; k < hi; k++ {
			pos[f.cols[k]] = k
		}
		for k := lo; k < hi; k++ {
			c := f.cols[k]
			if c >= i {
				continue
			}
			if f.diag[c] == 0 {
				return nil, fmt.Errorf("ref: zero pivot at row %d", c)
			}
			piv := f.vals[k] / f.diag[c]
			f.vals[k] = piv
			for kk := f.rowPtr[c]; kk < f.rowPtr[c+1]; kk++ {
				j := f.cols[kk]
				if j <= c {
					continue
				}
				u := f.vals[kk]
				if j == i {
					f.diag[i] -= piv * u
				} else if p := pos[j]; p >= 0 {
					f.vals[p] -= piv * u
				}
			}
		}
		for k := lo; k < hi; k++ {
			pos[f.cols[k]] = -1
		}
	}
	for i, d := range f.diag {
		if d == 0 {
			return nil, fmt.Errorf("ref: zero U diagonal at row %d", i)
		}
	}
	return f, nil
}

// Solve computes z = U⁻¹ L⁻¹ r.
func (f *ILU0) Solve(z, r []float64) {
	// Forward: L z = r (unit diagonal).
	for i := 0; i < f.n; i++ {
		s := r[i]
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			if j := f.cols[k]; j < i {
				s -= f.vals[k] * z[j]
			}
		}
		z[i] = s
	}
	// Backward: U z = z.
	for i := f.n - 1; i >= 0; i-- {
		s := z[i]
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			if j := f.cols[k]; j > i {
				s -= f.vals[k] * z[j]
			}
		}
		z[i] = s / f.diag[i]
	}
}

// Result reports a reference solve.
type Result struct {
	Iterations int
	RelRes     float64
	Converged  bool
}

// Precond approximates M⁻¹r for the reference solvers.
type Precond interface {
	Solve(z, r []float64)
}

// IdentityPrecond is the no-op preconditioner.
type IdentityPrecond struct{}

// Solve implements Precond.
func (IdentityPrecond) Solve(z, r []float64) { copy(z, r) }

// JacobiPrecond is diagonal scaling.
type JacobiPrecond struct{ InvDiag []float64 }

// NewJacobi builds a Jacobi preconditioner for m.
func NewJacobi(m *sparse.Matrix) *JacobiPrecond {
	inv := make([]float64, m.N)
	for i, d := range m.Diag {
		inv[i] = 1 / d
	}
	return &JacobiPrecond{InvDiag: inv}
}

// Solve implements Precond.
func (p *JacobiPrecond) Solve(z, r []float64) {
	for i := range r {
		z[i] = r[i] * p.InvDiag[i]
	}
}

// BiCGStab solves A x = b with preconditioner pre to relative tolerance tol,
// mirroring the algorithm of the paper's Fig. 4 in float64.
func BiCGStab(m *sparse.Matrix, x, b []float64, pre Precond, maxIter int, tol float64) Result {
	n := m.N
	r := make([]float64, n)
	r0 := make([]float64, n)
	p := make([]float64, n)
	v := make([]float64, n)
	y := make([]float64, n)
	s := make([]float64, n)
	z := make([]float64, n)
	t := make([]float64, n)
	m.MulVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	copy(r0, r)
	bnorm := Norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	rhoOld, alpha, omega := 1.0, 1.0, 1.0
	relres := Norm2(r) / bnorm
	iter := 0
	for ; iter < maxIter && relres > tol; iter++ {
		rho := Dot(r0, r)
		if math.Abs(rho) < 1e-300 {
			break
		}
		beta := (rho / rhoOld) * (alpha / omega)
		for i := range p {
			p[i] = r[i] + beta*(p[i]-omega*v[i])
		}
		pre.Solve(y, p)
		m.MulVec(y, v)
		gamma := Dot(r0, v)
		if gamma == 0 {
			break
		}
		alpha = rho / gamma
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		pre.Solve(z, s)
		m.MulVec(z, t)
		tt := Dot(t, t)
		if tt == 0 {
			break
		}
		omega = Dot(t, s) / tt
		for i := range x {
			x[i] += alpha*y[i] + omega*z[i]
		}
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
		rhoOld = rho
		relres = Norm2(r) / bnorm
	}
	return Result{Iterations: iter, RelRes: relres, Converged: relres <= tol}
}

// GaussSeidel runs forward sweeps until tol or maxSweeps.
func GaussSeidel(m *sparse.Matrix, x, b []float64, maxSweeps int, tol float64) Result {
	r := make([]float64, m.N)
	bnorm := Norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	relres := math.Inf(1)
	sw := 0
	for ; sw < maxSweeps && relres > tol; sw++ {
		for i := 0; i < m.N; i++ {
			s := b[i]
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				s -= m.Vals[k] * x[m.Cols[k]]
			}
			x[i] = s / m.Diag[i]
		}
		m.MulVec(x, r)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		relres = Norm2(r) / bnorm
	}
	return Result{Iterations: sw, RelRes: relres, Converged: relres <= tol}
}
