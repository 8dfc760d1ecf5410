package core

import (
	"strings"
	"testing"

	"ipusparse/internal/config"
	"ipusparse/internal/sparse"
)

// TestFaultFreeRecoveryArmedMatrix is the regression net for the empty-
// Recovery{} breakdown: arming checkpoint/restart with no faults injected
// must be behaviorally invisible — every solver × preconditioner shape
// converges exactly as it does unarmed, with zero restarts, no breakdown and
// no recovery reported. Before the benign-stagnation fix, MPIR's f32 inner
// solves tripped the scalar breakdown guards at the float32 residual floor
// (ω ≈ 0 is deterministic stagnation, not a transient fault), burned the
// whole restart budget replaying checkpoints and surfaced "breakdown (omega)"
// on a perfectly healthy solve.
func TestFaultFreeRecoveryArmedMatrix(t *testing.T) {
	type problem struct {
		m *sparse.Matrix
		b []float64
	}
	mk := func(m *sparse.Matrix) problem {
		b := make([]float64, m.N)
		for i := range b {
			b[i] = 1
		}
		return problem{m, b}
	}
	small := mk(sparse.Poisson2D(12, 12))

	cases := map[string]struct {
		cfg   config.Config
		prob  problem
		tiles int
	}{
		"cg-none":        {backendProfiles()["cg-plain"], small, 8},
		"cg-jacobi":      {backendProfiles()["cg-jacobi"], small, 8},
		"pbicgstab-ilu0": {backendProfiles()["pbicgstab-ilu0"], small, 8},
		"mpir-cg-jacobi": {backendProfiles()["mpir-dp-cg"], small, 8},
		// The original report: default config (MPIR dw + PBiCGStab + ILU(0))
		// on poisson3d:8 across 64 tiles, Recovery{} armed, no faults.
		"mpir-pbicgstab-ilu0-poisson3d": {
			config.Default(), mk(sparse.Poisson3D(8, 8, 8)), 64,
		},
	}
	for name, tc := range cases {
		for _, be := range []string{"sim", "native"} {
			cfg := tc.cfg
			cfg.Recovery = &config.RecoveryConfig{} // armed, all defaults
			prep, err := Prepare(smallMachine(tc.tiles), tc.prob.m, cfg, PartitionContiguous, WithBackend(be))
			if err != nil {
				t.Fatalf("%s/%s: prepare: %v", name, be, err)
			}
			res, err := prep.Solve(tc.prob.b)
			if err != nil {
				t.Fatalf("%s/%s: fault-free armed solve failed: %v", name, be, err)
			}
			st := res.Stats
			if !st.Converged {
				t.Fatalf("%s/%s: did not converge: %+v", name, be, st)
			}
			if st.Restarts != 0 || st.Recovered || st.Breakdown {
				t.Fatalf("%s/%s: recovery machinery fired on a fault-free solve: restarts=%d recovered=%v breakdown=%v (%s)",
					name, be, st.Restarts, st.Recovered, st.Breakdown, st.BreakdownReason)
			}
		}
	}
}

// TestRecoveryOverGaussSeidelRejected: Gauss-Seidel has no restartable state
// for a recovery policy to checkpoint, so a recovery block over it is refused
// instead of running the campaign unhardened. Validation names the type, and
// prepare, which the validated path reaches, refuses it on its own too.
func TestRecoveryOverGaussSeidelRejected(t *testing.T) {
	m := sparse.Poisson2D(12, 12)
	cfg := backendProfiles()["gaussseidel"]
	cfg.Recovery = &config.RecoveryConfig{Interval: 5, MaxRestarts: 2}
	for _, be := range []string{config.BackendSim, config.BackendNative} {
		_, err := Prepare(smallMachine(8), m, cfg, PartitionContiguous, WithBackend(be))
		if err == nil || !strings.Contains(err.Error(), `"gaussseidel"`) {
			t.Errorf("%s: Prepare: got %v, want an error naming gaussseidel", be, err)
		}
		_, err = prepare(smallMachine(8), m, cfg, PartitionContiguous, nil, be, nil)
		if err == nil || !strings.Contains(err.Error(), `"gaussseidel"`) {
			t.Errorf("%s: prepare: got %v, want an error naming gaussseidel", be, err)
		}
	}
}
