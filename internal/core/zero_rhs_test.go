package core

import (
	"math"
	"testing"

	"ipusparse/internal/config"
	"ipusparse/internal/sparse"
)

// TestZeroRHSGetsZeroAnswer solves A x = 0 from x₀ = 0 with every buildable
// solver type and the default MPIR hierarchy on both backends: the answer is
// x = 0 exactly, claimed converged, with no error and at most one iteration.
// A zero ‖b‖ measures the absolute residual, which is zero from the start.
func TestZeroRHSGetsZeroAnswer(t *testing.T) {
	m := sparse.Poisson2D(16, 16)
	b := make([]float64, m.N)
	profiles := map[string]config.Config{"mpir-default": config.Default()}
	for _, typ := range []string{"pbicgstab", "bicgstab", "cg", "richardson", "gaussseidel", "jacobi", "ilu0", "dilu"} {
		profiles[typ] = config.Config{Solver: config.SolverConfig{Type: typ, MaxIterations: 200, Tolerance: 1e-8}}
	}
	profiles["cg+jacobi"] = config.Config{Solver: config.SolverConfig{
		Type: "cg", MaxIterations: 200, Tolerance: 1e-8, Preconditioner: &config.SolverConfig{Type: "jacobi"},
	}}
	for name, cfg := range profiles {
		for _, be := range []string{"sim", "native"} {
			prep, err := Prepare(smallMachine(8), m, cfg, PartitionContiguous, WithBackend(be))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, be, err)
			}
			res, err := prep.Solve(b)
			if err != nil {
				t.Errorf("%s/%s: %v", name, be, err)
				continue
			}
			st := res.Stats
			if !st.Converged || st.Iterations > 1 {
				t.Errorf("%s/%s: converged=%v after %d iterations (relres %v, breakdown %q), want converged in <= 1",
					name, be, st.Converged, st.Iterations, st.RelRes, st.BreakdownReason)
			}
			for i, v := range res.X {
				if v != 0 {
					t.Errorf("%s/%s: x[%d] = %v, want 0", name, be, i, v)
					break
				}
			}
			if math.IsNaN(st.RelRes) {
				t.Errorf("%s/%s: relres is NaN", name, be)
			}
		}
	}
}
