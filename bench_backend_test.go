// Execution-backend microbenchmarks (Table X): warm prepared-pipeline CG
// solves on the cycle-accurate simulator versus the native backend.
//
//	go test -bench=BenchmarkBackend -benchmem
//
// In -short mode (the CI smoke step) the workload shrinks to a 64-tile
// machine so one iteration completes in milliseconds. The native arm's
// allocs/op is the number to watch: the lean SolveInto path must stay
// allocation-free in steady state.
package ipusparse

import (
	"testing"

	"ipusparse/internal/config"
	"ipusparse/internal/core"
	"ipusparse/internal/sparse"
)

// backendBenchPrep builds the Table X workload — fixed-budget Jacobi-
// preconditioned CG on a 3-D Poisson system — prepared on the named backend.
func backendBenchPrep(b *testing.B, backend string) (*core.Prepared, []float64, []float64) {
	cfg, n := engineBenchScale(b)
	m := sparse.Poisson3D(n, n, n)
	sc := config.Config{Solver: config.SolverConfig{
		Type: "cg", MaxIterations: 40, Tolerance: 1e-10,
		Preconditioner: &config.SolverConfig{Type: "jacobi"},
	}}
	prep, err := core.Prepare(cfg, m, sc, core.PartitionContiguous, core.WithBackend(backend))
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, m.N)
	xs := make([]float64, m.N)
	for i := range xs {
		xs[i] = 1 + 0.5*float64(i%17)/17
	}
	m.MulVec(xs, rhs)
	x := make([]float64, m.N)
	if _, err := prep.SolveInto(x, rhs); err != nil { // warm-up grows every buffer once
		b.Fatal(err)
	}
	return prep, x, rhs
}

func benchmarkBackendCG(b *testing.B, backend string) {
	prep, x, rhs := backendBenchPrep(b, backend)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prep.SolveInto(x, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBackendCG measures one warm prepared CG solve per op through the
// lean SolveInto path on each backend. The two arms run the same compiled
// schedule; only the execution substrate differs.
func BenchmarkBackendCG(b *testing.B) {
	b.Run("sim", func(b *testing.B) { benchmarkBackendCG(b, "sim") })
	b.Run("native", func(b *testing.B) { benchmarkBackendCG(b, "native") })
}
