package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ipusparse/internal/config"
	"ipusparse/internal/core"
	"ipusparse/internal/graph"
	"ipusparse/internal/hostpool"
	"ipusparse/internal/ipu"
	"ipusparse/internal/sparse"
)

// EngineRow is one row of Table VIII: host wall time of the simulated BSP
// engine, serial versus sharded across host cores, for one workload on one
// machine scale. The engine guarantees bit- and cycle-identical results at
// every parallelism level; Identical records that the study re-verified it.
type EngineRow struct {
	Workload    string  `json:"workload"` // SpMV or CG
	Machine     string  `json:"machine"`  // e.g. "64-tile", "M2000"
	Tiles       int     `json:"tiles"`
	Rows        int     `json:"rows"`
	NNZ         int     `json:"nnz"`
	Parallelism int     `json:"parallelism"` // shard count of the parallel arm
	SerialSec   float64 `json:"serialSeconds"`
	ParallelSec float64 `json:"parallelSeconds"`
	Speedup     float64 `json:"speedup"`
	SerialAPO   float64 `json:"serialAllocsPerOp"`   // steady-state allocs per run
	ParallelAPO float64 `json:"parallelAllocsPerOp"` // steady-state allocs per run
	Identical   bool    `json:"identical"`
}

// EngineStudy measures the host-parallel engine (Table VIII): per-iteration
// wall time of a simulated SpMV and a full CG solve at the small single-chip
// scale and at M2000 scale, serial versus sharded across all cores.
func EngineStudy(o Options) ([]EngineRow, error) {
	o = o.withDefaults()
	par := o.Parallelism
	if par <= 0 {
		par = hostpool.Parallelism()
	}
	type scale struct {
		name  string
		cfg   ipu.Config
		n     int // Poisson grid edge (n^3 rows)
		iters int
	}
	full := ipu.Mk2M2000()
	scales := []scale{
		{"64-tile", o.machineConfig(1), 24, 20},
		{"M2000", full, 48, 8},
	}
	if o.Scale > 64 {
		// Quick mode (tests): tiny grids, few iterations — shapes only.
		scales[0].n, scales[0].iters = 12, 2
		scales[1].n, scales[1].iters = 16, 2
	}
	var rows []EngineRow
	for _, sc := range scales {
		m := sparse.Poisson3D(sc.n, sc.n, sc.n)
		r, err := engineSpMVRow(sc.name, sc.cfg, m, sc.n, par, sc.iters)
		if err != nil {
			return nil, fmt.Errorf("engine %s SpMV: %w", sc.name, err)
		}
		rows = append(rows, r)
		r, err = engineCGRow(sc.name, sc.cfg, m, par)
		if err != nil {
			return nil, fmt.Errorf("engine %s CG: %w", sc.name, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// engineSpMVRow times repeated executions of a scheduled distributed SpMV at
// parallelism 1 and par, and verifies cycle- and bit-identity between arms.
func engineSpMVRow(name string, cfg ipu.Config, m *sparse.Matrix, n, par, iters int) (EngineRow, error) {
	sess, sys, err := newSystem(cfg, m, n, n, n)
	if err != nil {
		return EngineRow{}, err
	}
	x := sys.Vector("x")
	y := sys.Vector("y")
	xh := make([]float64, m.N)
	for i := range xh {
		xh[i] = 1 + 0.25*float64(i%13)
	}
	if err := sys.SetGlobal(x, xh); err != nil {
		return EngineRow{}, err
	}
	sys.SpMV(y, x)
	prog := sess.Program()
	graph.Freeze(prog)
	eng := graph.NewEngine(sess.M)
	eng.Reserve(graph.Analyze(prog).MaxExchangeMoves)

	arm := func(p int) (sec, allocs float64, cycles uint64, out []float64, err error) {
		eng.SetParallelism(p)
		if err = eng.Run(prog); err != nil { // warm-up: grows every buffer once
			return
		}
		sess.M.ResetStats()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		const reps = 3 // best-of batches against scheduler noise
		sec = math.Inf(1)
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				if err = eng.Run(prog); err != nil {
					return
				}
			}
			if d := time.Since(t0).Seconds() / float64(iters); d < sec {
				sec = d
			}
		}
		runtime.ReadMemStats(&ms1)
		allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(reps*iters)
		cycles = sess.M.Stats().TotalCycles
		out = sys.GetGlobal(y)
		return
	}

	sSec, sAPO, sCyc, sOut, err := arm(1)
	if err != nil {
		return EngineRow{}, err
	}
	pSec, pAPO, pCyc, pOut, err := arm(par)
	if err != nil {
		return EngineRow{}, err
	}
	return EngineRow{
		Workload: "SpMV", Machine: name, Tiles: cfg.NumTiles(),
		Rows: m.N, NNZ: m.NNZ(), Parallelism: par,
		SerialSec: sSec, ParallelSec: pSec, Speedup: sSec / pSec,
		SerialAPO: sAPO, ParallelAPO: pAPO,
		Identical: sCyc == pCyc && vecBitsEqual(sOut, pOut),
	}, nil
}

// engineCGRow times a full prepared CG solve (Jacobi-preconditioned, fixed
// iteration budget) at parallelism 1 and par through the core pipeline, so
// the measurement includes every superstep the real solver path executes.
func engineCGRow(name string, cfg ipu.Config, m *sparse.Matrix, par int) (EngineRow, error) {
	sc := config.Config{Solver: config.SolverConfig{
		Type: "cg", MaxIterations: 40, Tolerance: 1e-10,
		Preconditioner: &config.SolverConfig{Type: "jacobi"},
	}}
	p, err := core.Prepare(cfg, m, sc, core.PartitionContiguous)
	if err != nil {
		return EngineRow{}, err
	}
	b := rhsForSolution(m)

	arm := func(pp int) (sec, allocs float64, res *core.Result, err error) {
		par := core.WithParallelism(pp)
		if _, err = p.Solve(b, par); err != nil { // warm-up
			return
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		sec = math.Inf(1)
		const reps = 3
		for i := 0; i < reps; i++ {
			res, err = p.Solve(b, par)
			if err != nil {
				return
			}
			if res.ExecWallSeconds < sec {
				sec = res.ExecWallSeconds
			}
		}
		runtime.ReadMemStats(&ms1)
		allocs = float64(ms1.Mallocs-ms0.Mallocs) / reps
		return
	}

	sSec, sAPO, sRes, err := arm(1)
	if err != nil {
		return EngineRow{}, err
	}
	pSec, pAPO, pRes, err := arm(par)
	if err != nil {
		return EngineRow{}, err
	}
	return EngineRow{
		Workload: "CG", Machine: name, Tiles: cfg.NumTiles(),
		Rows: m.N, NNZ: m.NNZ(), Parallelism: par,
		SerialSec: sSec, ParallelSec: pSec, Speedup: sSec / pSec,
		SerialAPO: sAPO, ParallelAPO: pAPO,
		Identical: sRes.Machine.TotalCycles == pRes.Machine.TotalCycles &&
			sRes.Stats.Iterations == pRes.Stats.Iterations &&
			vecBitsEqual(sRes.X, pRes.X),
	}, nil
}

// vecBitsEqual compares two float64 vectors bit for bit (NaN-safe, -0 != +0).
func vecBitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// singleCoreWarning flags a measurement host that cannot show parallel
// speedup: with one schedulable core the parallel arm measures goroutine
// scheduling overhead, not sharded execution.
func singleCoreWarning() string {
	if runtime.NumCPU() > 1 && runtime.GOMAXPROCS(0) > 1 {
		return ""
	}
	return fmt.Sprintf("single-core host (NumCPU=%d, GOMAXPROCS=%d): parallel arms measure scheduling overhead, not speedup",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// PrintEngineStudy renders Table VIII.
func PrintEngineStudy(o Options, rows []EngineRow) {
	o.printf("Table VIII: host-parallel engine (serial vs %d shards, bit-identical results)\n",
		rowsPar(rows))
	if w := singleCoreWarning(); w != "" {
		o.printf("WARNING: %s\n", w)
	}
	o.printf("%-8s %-10s %7s %9s %12s %12s %9s %10s %s\n",
		"work", "machine", "tiles", "rows", "serial s", "parallel s", "speedup", "allocs/op", "identical")
	for _, r := range rows {
		o.printf("%-8s %-10s %7d %9d %12.4e %12.4e %8.2fx %10.1f %v\n",
			r.Workload, r.Machine, r.Tiles, r.Rows, r.SerialSec, r.ParallelSec,
			r.Speedup, r.ParallelAPO, r.Identical)
	}
}

func rowsPar(rows []EngineRow) int {
	if len(rows) == 0 {
		return 0
	}
	return rows[0].Parallelism
}
