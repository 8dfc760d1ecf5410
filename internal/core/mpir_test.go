package core

import (
	"testing"

	"ipusparse/internal/config"
	"ipusparse/internal/ipu"
	"ipusparse/internal/sparse"
)

// mpirCase is one system of the MPIR convergence property: b = A·1 on 64
// tiles, the machine the sim-cold suite and serve-mpir use. Its values are
// rounded to float32, the precision the device stores A in, so the float64
// host residual measures the solve and not the rounding of A.
type mpirCase struct {
	name string
	m    *sparse.Matrix
	spd  bool // CG-solvable (the mpir-dp-cg profile needs symmetry)
}

func mpirCases(t *testing.T) []mpirCase {
	t.Helper()
	var cases []mpirCase
	for _, g := range []struct {
		spec string
		spd  bool
	}{{"poisson3d:16", true}, {"stencil27:16", true}, {"convdiff2d:64:10", false}} {
		m, err := sparse.GenByName(g.spec)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, mpirCase{g.spec, m, g.spd})
	}
	for _, name := range []string{"G3_circuit", "Geo_1438"} {
		s, err := sparse.SuiteLikeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, mpirCase{name + "/256", s.Generate(256), true})
	}
	for _, c := range cases {
		for _, v := range [][]float64{c.m.Diag, c.m.Vals} {
			for i := range v {
				v[i] = float64(float32(v[i]))
			}
		}
	}
	return cases
}

// mpirMachine is one Mk2 chip cut to 64 tiles.
func mpirMachine() ipu.Config {
	mc := ipu.Mk2M2000()
	mc.Chips, mc.TilesPerChip = 1, 64
	return mc
}

// solveOnes solves A·x = A·1 with cfg on backend be and returns the result
// with the float64 host relative residual of its answer.
func solveOnes(t *testing.T, m *sparse.Matrix, cfg config.Config, be string) (*Result, float64) {
	t.Helper()
	ones := make([]float64, m.N)
	for i := range ones {
		ones[i] = 1
	}
	b := make([]float64, m.N)
	m.MulVec(ones, b)
	p, err := Prepare(mpirMachine(), m, cfg, PartitionContiguous, WithBackend(be))
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	return r, relResidual(t, m.N, m.MulVec, r.X, b)
}

// TestMPIRConverges is the convergence property of the refinement loop now
// that every correction solve stops at solver.CorrectionTol: on both backends
// and every system, the default hierarchy (and mpir-dp-cg on the symmetric
// ones) converges to a float64-verified answer in at most four refinement
// steps, with no breakdown and no restart.
func TestMPIRConverges(t *testing.T) {
	const slack, maxSteps = 10, 4
	profiles := map[string]config.Config{
		"default":    config.Default(),
		"mpir-dp-cg": backendProfiles()["mpir-dp-cg"],
	}
	for _, c := range mpirCases(t) {
		for name, cfg := range profiles {
			if cfg.Solver.Type == "cg" && !c.spd {
				continue
			}
			for _, be := range []string{"sim", "native"} {
				t.Run(c.name+"/"+name+"/"+be, func(t *testing.T) {
					r, rr := solveOnes(t, c.m, cfg, be)
					st := r.Stats
					steps := len(st.History) - 1
					if !st.Converged || rr > cfg.MPIR.Tolerance*slack {
						t.Errorf("converged=%v, host relres %.3g (tolerance %g)", st.Converged, rr, cfg.MPIR.Tolerance)
					}
					if st.Breakdown || st.Restarts != 0 {
						t.Errorf("breakdown=%v (%s), %d restarts", st.Breakdown, st.BreakdownReason, st.Restarts)
					}
					if steps > maxSteps {
						t.Errorf("%d refinement steps (%d iterations), want <= %d", steps, st.Iterations, maxSteps)
					}
				})
			}
		}
	}
}
