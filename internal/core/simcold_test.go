package core

import (
	"os"
	"path/filepath"
	"testing"

	"ipusparse/internal/config"
	"ipusparse/internal/ipu"
	"ipusparse/internal/sparse"
)

// TestSimColdCountsExact pins the simulated counts of one cold pass of the
// benchmark's sim-cold suite: same matrices, same configs (read from
// benchmark/configs), 64 tiles, b = A·1. IPU cycle counts depend only on the
// sparsity pattern and the compiled program, so these numbers repeat exactly;
// a change that moves simulated cycles edits them here, visibly.
func TestSimColdCountsExact(t *testing.T) {
	suite := []struct {
		gen, cfg   string
		strategy   PartitionStrategy
		cycles     uint64
		supersteps uint64
		iterations int
	}{
		{"poisson3d:24", "sim-mpir-dw-ilu.json", PartitionContiguous, 7_030_332, 3_536, 140},
		{"poisson3d:24", "sim-cg-chebyshev.json", PartitionContiguous, 2_024_694, 1_297, 45},
		{"stencil27:16", "sim-bicgstab-ilu-coarse.json", PartitionGreedy, 4_092_062, 781, 22},
	}
	mc := ipu.Mk2M2000()
	mc.Chips, mc.TilesPerChip = 1, 64

	var cycles, supersteps uint64
	for _, e := range suite {
		f, err := os.Open(filepath.Join("..", "..", "benchmark", "configs", e.cfg))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := config.Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", e.cfg, err)
		}
		m, err := sparse.GenByName(e.gen)
		if err != nil {
			t.Fatal(err)
		}
		ones := make([]float64, m.N)
		for i := range ones {
			ones[i] = 1
		}
		b := make([]float64, m.N)
		m.MulVec(ones, b)

		r, err := Solve(mc, m, b, cfg, e.strategy, WithBackend("sim"))
		if err != nil {
			t.Fatalf("%s x %s: %v", e.gen, e.cfg, err)
		}
		if !r.Stats.Converged {
			t.Errorf("%s x %s: did not converge", e.gen, e.cfg)
		}
		if r.Machine.TotalCycles != e.cycles || r.Machine.Supersteps != e.supersteps || r.Stats.Iterations != e.iterations {
			t.Errorf("%s x %s: %d cycles, %d supersteps, %d iterations; want %d, %d, %d",
				e.gen, e.cfg, r.Machine.TotalCycles, r.Machine.Supersteps, r.Stats.Iterations,
				e.cycles, e.supersteps, e.iterations)
		}
		cycles += r.Machine.TotalCycles
		supersteps += r.Machine.Supersteps
	}
	if cycles != 13_147_088 || supersteps != 5_614 {
		t.Errorf("suite total %d cycles, %d supersteps; want 13,147,088 and 5,614", cycles, supersteps)
	}
}
