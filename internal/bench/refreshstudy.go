package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ipusparse/internal/core"
	"ipusparse/internal/ipu"
	"ipusparse/internal/sparse"
)

// RefreshRow is one row of Table XII: the per-step cost of a streaming solve
// sequence — the same sparsity pattern, new numeric values every step — done
// the cold way (Prepare a fresh pipeline per step) versus the warm way
// (UpdateValues on one prepared pipeline). The amortization factor is the
// cold/warm ratio; BitIdentical re-verifies that every warm step returned
// exactly the solution a cold prepare of the same values would have.
type RefreshRow struct {
	Backend      string  `json:"backend"`
	Machine      string  `json:"machine"`
	Tiles        int     `json:"tiles"`
	Rows         int     `json:"rows"`
	NNZ          int     `json:"nnz"`
	Steps        int     `json:"steps"`
	ColdSec      float64 `json:"coldSeconds"`    // per step: Prepare + SolveInto
	WarmSec      float64 `json:"warmSeconds"`    // per step: UpdateValues + SolveInto
	Amortization float64 `json:"amortization"`   // cold / warm
	RefreshSec   float64 `json:"refreshSeconds"` // UpdateValues alone, per step
	RefreshAPO   float64 `json:"refreshAllocsPerOp"`
	BitIdentical bool    `json:"bitIdentical"`
}

// RefreshStudy measures Table XII on both backends at the small single-chip
// scale and at M2000 scale. The workload is the streaming regime the refresh
// path exists for: the values drift a little per step, so each step is a
// short fixed-budget Jacobi-preconditioned CG correction (same solver family
// as Tables VIII and X, shorter budget). The budget is fixed, so both arms
// run the identical solve; the whole difference is pipeline construction
// versus values-only refresh, and the printed cold/warm/refresh columns let
// the ratio be recomputed for any other step length.
func RefreshStudy(o Options) ([]RefreshRow, error) {
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
	var rows []RefreshRow
	for _, sc := range scales {
		m := sparse.Poisson3D(sc.n, sc.n, sc.n)
		for _, be := range []string{"sim", "native"} {
			row, err := refreshRow(sc.name, sc.cfg, m, be)
			if err != nil {
				return nil, fmt.Errorf("refresh %s/%s: %w", sc.name, be, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// driftValues returns a same-pattern generation with new numeric values:
// the diagonal grows slightly and the off-diagonal couplings decay, so the
// matrix stays symmetric diagonally dominant and every generation converges
// identically under the fixed iteration budget.
func driftValues(m *sparse.Matrix, step int) *sparse.Matrix {
	out := m.Clone()
	for i := range out.Diag {
		out.Diag[i] *= 1 + 0.002*float64(1+(i+step)%7)
	}
	for k := range out.Vals {
		out.Vals[k] *= 0.999
	}
	return out
}

// refreshRow measures one (machine, backend) cell: a streaming sequence of
// value generations solved warm (one pipeline, UpdateValues per step) and
// cold (a fresh Prepare per step), with the warm refresh hot path also
// checked for steady-state allocations.
func refreshRow(name string, cfg ipu.Config, m *sparse.Matrix, be string) (RefreshRow, error) {
	sc := backendCG()
	sc.Solver.MaxIterations = 10 // per-step correction budget of the streaming regime
	b := rhsForSolution(m)
	const steps = 3

	// Build every generation up front so matrix construction is never timed.
	gens := make([]*sparse.Matrix, steps)
	g := m
	for s := range gens {
		g = driftValues(g, s)
		gens[s] = g
	}

	row := RefreshRow{
		Backend: be, Machine: name, Tiles: cfg.NumTiles(),
		Rows: m.N, NNZ: m.NNZ(), Steps: steps, BitIdentical: true,
	}

	// Warm arm: one pipeline, values-only refresh per step.
	p, err := core.Prepare(cfg, m, sc, core.PartitionContiguous, core.WithBackend(be))
	if err != nil {
		return row, err
	}
	x := make([]float64, m.N)
	if _, err := p.SolveInto(x, b); err != nil { // warm-up: grows every buffer once
		return row, err
	}
	warmX := make([][]float64, steps)
	const reps = 2 // best-of against scheduler noise; generations replay exactly
	warmSec, refreshSec := math.Inf(1), math.Inf(1)
	for r := 0; r < reps; r++ {
		var warm, refresh time.Duration
		for s, gm := range gens {
			t0 := time.Now()
			if err := p.UpdateValues(gm); err != nil {
				return row, err
			}
			refresh += time.Since(t0)
			if _, err := p.SolveInto(x, b); err != nil {
				return row, err
			}
			warm += time.Since(t0)
			if r == 0 {
				warmX[s] = append([]float64(nil), x...)
			}
		}
		if d := warm.Seconds() / steps; d < warmSec {
			warmSec = d
		}
		if d := refresh.Seconds() / steps; d < refreshSec {
			refreshSec = d
		}
	}
	row.WarmSec, row.RefreshSec = warmSec, refreshSec

	// Steady-state allocations of the refresh hot path alone, alternating
	// between two value generations so every call rewrites real deltas.
	const apoReps = 10
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 0; r < apoReps; r++ {
		if err := p.UpdateValues(gens[r%2]); err != nil {
			return row, err
		}
	}
	runtime.ReadMemStats(&ms1)
	row.RefreshAPO = float64(ms1.Mallocs-ms0.Mallocs) / apoReps

	// Cold arm: a fresh Prepare per generation — the cost streaming callers
	// pay without the refresh path — doubling as the bit-identity oracle.
	var cold time.Duration
	xc := make([]float64, m.N)
	for s, gm := range gens {
		t0 := time.Now()
		pc, err := core.Prepare(cfg, gm, sc, core.PartitionContiguous, core.WithBackend(be))
		if err != nil {
			return row, err
		}
		if _, err := pc.SolveInto(xc, b); err != nil {
			return row, err
		}
		cold += time.Since(t0)
		for i := range xc {
			if xc[i] != warmX[s][i] {
				row.BitIdentical = false
				break
			}
		}
	}
	row.ColdSec = cold.Seconds() / steps
	row.Amortization = row.ColdSec / row.WarmSec
	return row, nil
}

// PrintRefreshStudy renders Table XII.
func PrintRefreshStudy(o Options, rows []RefreshRow) {
	o.printf("Table XII: values-only refresh amortization (streaming solves, fixed-pattern)\n")
	if w := singleCoreWarning(); w != "" {
		o.printf("WARNING: %s\n", w)
	}
	o.printf("%-8s %-10s %7s %9s %12s %12s %9s %12s %10s %s\n",
		"backend", "machine", "tiles", "rows", "cold s", "warm s", "amort",
		"refresh s", "allocs/op", "identical")
	for _, r := range rows {
		o.printf("%-8s %-10s %7d %9d %12.4e %12.4e %8.2fx %12.4e %10.1f %v\n",
			r.Backend, r.Machine, r.Tiles, r.Rows, r.ColdSec, r.WarmSec,
			r.Amortization, r.RefreshSec, r.RefreshAPO, r.BitIdentical)
	}
}
