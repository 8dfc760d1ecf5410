package ref

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ipusparse/internal/sparse"
)

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestBlasHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Error("dot")
	}
	if math.Abs(Norm2(a)-math.Sqrt(14)) > 1e-15 {
		t.Error("norm")
	}
	Axpy(2, a, b)
	if b[0] != 6 || b[2] != 12 {
		t.Error("axpy")
	}
}

func TestILU0ExactOnTriangularSystems(t *testing.T) {
	// For a matrix whose LU factors have no fill-in outside the pattern
	// (e.g. the 1-D Laplacian, which is tridiagonal), ILU(0) equals exact LU
	// and Solve is a direct solver.
	m := sparse.Laplacian1D(20)
	f, err := NewILU0(m)
	if err != nil {
		t.Fatal(err)
	}
	want := randVec(m.N, 2)
	b := make([]float64, m.N)
	m.MulVec(want, b)
	z := make([]float64, m.N)
	f.Solve(z, b)
	for i := range want {
		if math.Abs(z[i]-want[i]) > 1e-10 {
			t.Fatalf("z[%d] = %v, want %v", i, z[i], want[i])
		}
	}
}

func TestILU0ReducesResidualAsPreconditioner(t *testing.T) {
	m := sparse.Poisson2D(15, 15)
	f, err := NewILU0(m)
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(m.N, 3)
	z := make([]float64, m.N)
	f.Solve(z, b)
	// The preconditioned residual should be much smaller than ||b||.
	r := make([]float64, m.N)
	m.MulVec(z, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	if Norm2(r) > 0.7*Norm2(b) {
		t.Errorf("ILU(0) apply too weak: %v vs %v", Norm2(r), Norm2(b))
	}
}

func TestILU0ZeroPivot(t *testing.T) {
	b := sparse.NewBuilder(2)
	b.Set(0, 0, 0)
	b.Set(1, 1, 1)
	m, _ := b.Build()
	if _, err := NewILU0(m); err == nil {
		t.Error("expected zero pivot error")
	}
}

func TestBiCGStabConverges(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *sparse.Matrix
		pre  func(m *sparse.Matrix) Precond
	}{
		{"identity", sparse.Poisson2D(12, 12), func(m *sparse.Matrix) Precond { return IdentityPrecond{} }},
		{"jacobi", sparse.Poisson2D(16, 16), func(m *sparse.Matrix) Precond { return NewJacobi(m) }},
		{"ilu0", sparse.Poisson3D(8, 8, 8), func(m *sparse.Matrix) Precond {
			f, err := NewILU0(m)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			want := randVec(m.N, 4)
			b := make([]float64, m.N)
			m.MulVec(want, b)
			x := make([]float64, m.N)
			res := BiCGStab(m, x, b, tc.pre(m), 2000, 1e-10)
			if !res.Converged {
				t.Fatalf("no convergence: %+v", res)
			}
			for i := range want {
				if math.Abs(x[i]-want[i]) > 1e-6 {
					t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
				}
			}
		})
	}
}

func TestILUBeatsJacobiIterations(t *testing.T) {
	m := sparse.Poisson2D(24, 24)
	b := randVec(m.N, 5)
	x1 := make([]float64, m.N)
	f, err := NewILU0(m)
	if err != nil {
		t.Fatal(err)
	}
	ilu := BiCGStab(m, x1, b, f, 2000, 1e-9)
	x2 := make([]float64, m.N)
	jac := BiCGStab(m, x2, b, NewJacobi(m), 2000, 1e-9)
	if !ilu.Converged || !jac.Converged {
		t.Fatal("both should converge")
	}
	if ilu.Iterations >= jac.Iterations {
		t.Errorf("ILU %d iterations should beat Jacobi %d", ilu.Iterations, jac.Iterations)
	}
}

func TestGaussSeidelConverges(t *testing.T) {
	m := sparse.RandomSPD(100, 5, 6)
	want := randVec(m.N, 7)
	b := make([]float64, m.N)
	m.MulVec(want, b)
	x := make([]float64, m.N)
	res := GaussSeidel(m, x, b, 2000, 1e-10)
	if !res.Converged {
		t.Fatalf("no convergence: %+v", res)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d]", i)
		}
	}
}

func TestBiCGStabZeroRhs(t *testing.T) {
	m := sparse.Poisson2D(5, 5)
	x := make([]float64, m.N)
	b := make([]float64, m.N)
	res := BiCGStab(m, x, b, IdentityPrecond{}, 10, 1e-10)
	if res.Iterations != 0 || !res.Converged {
		t.Errorf("zero rhs: %+v", res)
	}
}

func TestBiCGStabProperty(t *testing.T) {
	// Random SPD systems must converge and reproduce the planted solution.
	f := func(seed int64) bool {
		m := sparse.RandomSPD(60, 4, seed)
		want := randVec(m.N, seed+1)
		b := make([]float64, m.N)
		m.MulVec(want, b)
		x := make([]float64, m.N)
		res := BiCGStab(m, x, b, NewJacobi(m), 500, 1e-9)
		if !res.Converged {
			return false
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
