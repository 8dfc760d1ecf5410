package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ipusparse/internal/config"
	"ipusparse/internal/core"
	"ipusparse/internal/ipu"
	"ipusparse/internal/sparse"
)

// BackendRow is one row of Table X: warm-solve cost of the same prepared
// pipeline on the cycle-accurate simulator versus the native backend, for the
// two served hierarchies. The backends agree at residual level (ResidualOK
// re-verifies it per row); the native arm additionally must be
// allocation-free in steady state.
type BackendRow struct {
	Workload     string  `json:"workload"` // "CG-warm", "MPIR-warm"
	Machine      string  `json:"machine"`
	Tiles        int     `json:"tiles"`
	Rows         int     `json:"rows"`
	NNZ          int     `json:"nnz"`
	SimSec       float64 `json:"simSeconds"`    // warm wall per solve
	NativeSec    float64 `json:"nativeSeconds"` // warm wall per solve
	Speedup      float64 `json:"speedup"`       // sim / native
	SimAPO       float64 `json:"simAllocsPerOp"`
	NativeAPO    float64 `json:"nativeAllocsPerOp"`
	SimRelRes    float64 `json:"simRelRes"`
	NativeRelRes float64 `json:"nativeRelRes"`
	// ResidualOK: CG-warm runs bit-identical kernels on a fixed budget, so
	// the relative residuals agree to 0.1%; MPIR-warm runs to its tolerance
	// (its fused vector updates round differently per backend), so both arms
	// converged.
	ResidualOK bool `json:"residualOk"`
}

// BackendStudy measures Table X: warm latency and steady-state allocations of
// the simulator versus the native backend, at the small single-chip scale and
// at M2000 scale, for fixed-budget CG+Jacobi and for the service default
// hierarchy run to convergence.
func BackendStudy(o Options) ([]BackendRow, error) {
	o = o.withDefaults()
	type scale struct {
		name string
		cfg  ipu.Config
		n    int // Poisson grid edge (n^3 rows)
	}
	scales := []scale{
		{"64-tile", o.machineConfig(1), 24},
		{"M2000", ipu.Mk2M2000(), 48},
	}
	if o.Scale > 64 {
		// Quick mode (tests): tiny grids — shapes only.
		scales[0].n = 12
		scales[1].n = 16
	}
	var rows []BackendRow
	for _, sc := range scales {
		m := sparse.Poisson3D(sc.n, sc.n, sc.n)
		for _, w := range []struct {
			name string
			cfg  config.Config
		}{{"CG-warm", backendCG()}, {"MPIR-warm", config.Default()}} {
			row, err := backendRow(w.name, w.cfg, sc.name, sc.cfg, m)
			if err != nil {
				return nil, fmt.Errorf("backend %s %s: %w", w.name, sc.name, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// backendCG is the study's workload: the engine study's fixed-budget
// Jacobi-preconditioned CG, so Table VIII and Table X rows are comparable.
func backendCG() config.Config {
	return config.Config{Solver: config.SolverConfig{
		Type: "cg", MaxIterations: 40, Tolerance: 1e-10,
		Preconditioner: &config.SolverConfig{Type: "jacobi"},
	}}
}

// backendRow prepares the same system once per backend and measures a warm
// single-RHS solve on each.
func backendRow(workload string, sc config.Config, name string, cfg ipu.Config, m *sparse.Matrix) (BackendRow, error) {
	b := rhsForSolution(m)

	type arm struct {
		sec, apo  float64 // warm per-solve wall, steady-state allocs/solve
		relres    float64
		converged bool
	}
	measure := func(be string) (arm, error) {
		var a arm
		p, err := core.Prepare(cfg, m, sc, core.PartitionContiguous, core.WithBackend(be))
		if err != nil {
			return a, err
		}
		x := make([]float64, m.N)
		st, err := p.SolveInto(x, b) // warm-up: grows every buffer once
		if err != nil {
			return a, err
		}
		a.relres, a.converged = st.RelRes, st.Converged

		const reps = 3 // best-of against scheduler noise
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		a.sec = math.Inf(1)
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			if _, err := p.SolveInto(x, b); err != nil {
				return a, err
			}
			if d := time.Since(t0).Seconds(); d < a.sec {
				a.sec = d
			}
		}
		runtime.ReadMemStats(&ms1)
		a.apo = float64(ms1.Mallocs-ms0.Mallocs) / reps
		return a, nil
	}

	sim, err := measure("sim")
	if err != nil {
		return BackendRow{}, err
	}
	nat, err := measure("native")
	if err != nil {
		return BackendRow{}, err
	}
	ok := relClose(sim.relres, nat.relres, 1e-3)
	if sc.MPIR != nil {
		ok = sim.converged && nat.converged
	}
	return BackendRow{
		Workload: workload,
		Machine:  name, Tiles: cfg.NumTiles(), Rows: m.N, NNZ: m.NNZ(),
		SimSec: sim.sec, NativeSec: nat.sec, Speedup: sim.sec / nat.sec,
		SimAPO: sim.apo, NativeAPO: nat.apo,
		SimRelRes: sim.relres, NativeRelRes: nat.relres,
		ResidualOK: ok,
	}, nil
}

// relClose reports |a-b| <= tol * max(|a|, |b|), with equal zeros close.
func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*scale
}

// PrintBackendStudy renders Table X.
func PrintBackendStudy(o Options, rows []BackendRow) {
	o.printf("Table X: execution backends (warm prepared-pipeline solves, residual-identical)\n")
	o.printf("%-10s %-10s %7s %9s %12s %12s %9s %11s %11s %s\n",
		"work", "machine", "tiles", "rows", "sim s", "native s", "speedup",
		"sim a/op", "nat a/op", "residual")
	for _, r := range rows {
		o.printf("%-10s %-10s %7d %9d %12.4e %12.4e %8.2fx %11.1f %11.1f %v\n",
			r.Workload, r.Machine, r.Tiles, r.Rows, r.SimSec, r.NativeSec,
			r.Speedup, r.SimAPO, r.NativeAPO, r.ResidualOK)
	}
}
