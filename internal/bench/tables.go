package bench

import (
	"math"
	"math/rand"

	"ipusparse/internal/codedsl"
	"ipusparse/internal/config"
	"ipusparse/internal/core"
	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
	"ipusparse/internal/platform"
	"ipusparse/internal/solver"
	"ipusparse/internal/sparse"
	"ipusparse/internal/twofloat"
)

// Table1Row is one row of Table I: a floating-point type supported by the
// DSLs with its measured per-operation cycle costs and accuracy.
type Table1Row struct {
	Type           string
	Algorithm      string
	DecimalDigits  float64
	MeasuredDigits float64 // from a dot-product accuracy probe
	AddCycles      uint64  // measured on a CodeDSL codelet
	MulCycles      uint64
	DivCycles      uint64
}

// Table1 measures the per-operation cycle costs of the three scalar types by
// running CodeDSL codelets on the simulated tile, and their effective decimal
// digits with a dot-product probe against a float64 reference.
func Table1(o Options) ([]Table1Row, error) {
	o = o.withDefaults()
	const n = 4096
	// measure isolates the FP-pipeline latency of one operation by timing
	// two codelets with dependent op chains of different lengths — the
	// difference cancels loop and load/store overhead (which dual-issues on
	// the second pipeline and would otherwise hide cheap f32 ops).
	measure := func(k ipu.Scalar, op func(a, b codedsl.Value) codedsl.Value) uint64 {
		buf := graph.NewBuffer(k, 2)
		buf.Set(0, 1.6)
		buf.Set(1, 0.7)
		chain := func(ops int) uint64 {
			b := codedsl.NewBuilder()
			v := codedsl.NewView(buf)
			b.For(b.ConstInt(0), b.ConstInt(n), b.ConstInt(1), func(i codedsl.Value) {
				x := b.Load(v, b.ConstInt(0))
				y := b.Load(v, b.ConstInt(1))
				for c := 0; c < ops; c++ {
					x = op(x, y)
				}
				b.Store(v, b.ConstInt(0), x)
			})
			return b.Build().Codelet().Run()
		}
		long, short := chain(12), chain(4)
		if long <= short {
			return 0
		}
		return (long - short) / (8 * n)
	}
	digits := func(k ipu.Scalar) float64 {
		rng := rand.New(rand.NewSource(o.Seed))
		var ref float64
		var f32 float32
		dw := twofloat.DW{}
		var dp float64
		for i := 0; i < 3000; i++ {
			a := float32(rng.Float64()*2 - 1)
			b := float32(rng.Float64()*2 - 1)
			ref += float64(a) * float64(b)
			switch k {
			case ipu.F32:
				f32 += a * b
			case ipu.DW:
				p, e := twofloat.TwoProd(a, b)
				dw = twofloat.Add(dw, twofloat.DW{Hi: p, Lo: e})
			case ipu.F64:
				dp += float64(a) * float64(b)
			}
		}
		var got float64
		switch k {
		case ipu.F32:
			got = float64(f32)
		case ipu.DW:
			got = dw.Float64()
		case ipu.F64:
			got = dp
		}
		err := math.Abs(got-ref) / math.Abs(ref)
		if err == 0 {
			return 17
		}
		return math.Min(17, -math.Log10(err))
	}
	rows := []Table1Row{
		{Type: "Single-Precision", Algorithm: "native"},
		{Type: "Double-Word", Algorithm: "Joldes et al."},
		{Type: "Double-Precision", Algorithm: "soft-float"},
	}
	for i, k := range []ipu.Scalar{ipu.F32, ipu.DW, ipu.F64} {
		rows[i].DecimalDigits = ipu.DecimalDigits(k)
		rows[i].MeasuredDigits = digits(k)
		rows[i].AddCycles = measure(k, func(a, b codedsl.Value) codedsl.Value { return a.Add(b) })
		rows[i].MulCycles = measure(k, func(a, b codedsl.Value) codedsl.Value { return a.Mul(b) })
		rows[i].DivCycles = measure(k, func(a, b codedsl.Value) codedsl.Value { return a.Div(b) })
	}
	return rows, nil
}

// PrintTable1 renders Table I.
func PrintTable1(o Options, rows []Table1Row) {
	o.printf("Table I: floating-point types (per-op cycles measured on a CodeDSL codelet)\n")
	o.printf("%-18s %-14s %8s %8s %6s %6s %6s\n", "Type", "Algorithm", "digits", "meas.dig", "add", "mul", "div")
	for _, r := range rows {
		o.printf("%-18s %-14s %8.1f %8.1f %6d %6d %6d\n",
			r.Type, r.Algorithm, r.DecimalDigits, r.MeasuredDigits, r.AddCycles, r.MulCycles, r.DivCycles)
	}
	o.printf("\n")
}

// Table2Row is one row of Table II: a benchmark matrix.
type Table2Row struct {
	Name      string
	PaperRows int
	PaperNNZ  int
	Rows      int // generated stand-in at the harness scale
	NNZ       int
	AvgPerRow float64
	SPD       bool
}

// Table2 generates the SuiteSparse-like stand-ins and reports their shapes
// next to the paper's originals.
func Table2(o Options) ([]Table2Row, error) {
	o = o.withDefaults()
	rows := make([]Table2Row, 0, len(sparse.SuiteLikeMatrices))
	for _, s := range sparse.SuiteLikeMatrices {
		m := s.Generate(o.Scale)
		st := m.ComputeStats()
		rows = append(rows, Table2Row{
			Name: s.Name, PaperRows: s.PaperRows, PaperNNZ: s.PaperNNZ,
			Rows: st.Rows, NNZ: st.NNZ, AvgPerRow: st.AvgPerRow,
			SPD: st.Symmetric && st.DiagDominant,
		})
	}
	return rows, nil
}

// PrintTable2 renders Table II.
func PrintTable2(o Options, rows []Table2Row) {
	o.printf("Table II: benchmark matrices (stand-ins at 1/%d scale)\n", o.withDefaults().Scale)
	o.printf("%-12s %10s %10s | %10s %10s %8s %5s\n", "Matrix", "paperRows", "paperNNZ", "rows", "nnz", "nnz/row", "SPD")
	for _, r := range rows {
		o.printf("%-12s %10d %10d | %10d %10d %8.1f %5v\n",
			r.Name, r.PaperRows, r.PaperNNZ, r.Rows, r.NNZ, r.AvgPerRow, r.SPD)
	}
	o.printf("\n")
}

// Table3 prints the benchmark architectures (Table III).
func Table3(o Options) []platform.Platform {
	return platform.Platforms
}

// PrintTable3 renders Table III.
func PrintTable3(o Options, rows []platform.Platform) {
	o.printf("Table III: benchmark architectures\n")
	o.printf("%-28s %-24s %-22s %8s  %s\n", "Architecture", "Cores", "Memory", "TDP[W]", "GP FLOPs")
	for _, p := range rows {
		o.printf("%-28s %-24s %-22s %8.0f  %s\n", p.Name, p.Cores, p.Memory, p.TDP, p.FLOPSum)
	}
	o.printf("\n")
}

// Table4Row is one operation class share of the MPIR profile.
type Table4Row struct {
	Operation string
	ShareDW   float64
	ShareDP   float64
}

// Table4 profiles the MPIR+PBiCGStab+ILU(0) solver on the G3_circuit-like
// matrix with 10 inner iterations per refinement step, once with double-word
// and once with soft-double extended precision, and reports the relative
// computation time of each operation class.
func Table4(o Options) ([]Table4Row, error) {
	o = o.withDefaults()
	prof := func(ext string) (map[string]float64, error) {
		g3, err := sparse.SuiteLikeByName("G3_circuit")
		if err != nil {
			return nil, err
		}
		m := g3.Generate(o.Scale)
		sess, sys, err := newSystem(o.compareMachine(), m, 0, 0, 0)
		if err != nil {
			return nil, err
		}
		mc := config.MPIRConfig{Extended: ext}
		extT := mc.ExtScalar()
		ilu := &solver.ILU{Sys: sys}
		ilu.SetupStep()
		mp := &solver.MPIR{
			Sys: sys, ExtType: extT,
			MakeInner: func(maxIter int) (solver.Solver, *float64) {
				return &solver.PBiCGStab{Sys: sys, Pre: ilu, MaxIter: maxIter, Tol: 1e-30}, nil
			},
			InnerIters: 10, MaxOuter: 5, Tol: 0,
		}
		x := sys.VectorTyped("x", extT)
		b := sys.VectorTyped("b", extT)
		if err := sys.SetGlobal(b, rhsForSolution(m)); err != nil {
			return nil, err
		}
		var st solver.RunStats
		mp.ScheduleSolve(x, b, &st)
		eng, err := o.run(sess, "table4/"+ext, &st)
		if err != nil {
			return nil, err
		}
		shares := map[string]float64{}
		var total uint64
		for label, c := range eng.Profile {
			// Table IV covers the compute classes; exchange and one-time
			// factorization are excluded like in the paper.
			if label == "Exchange" || label == "ILU(0) Factor" {
				continue
			}
			total += c
		}
		for label, c := range eng.Profile {
			if label == "Exchange" || label == "ILU(0) Factor" {
				continue
			}
			shares[label] = float64(c) / float64(total)
		}
		return shares, nil
	}
	dw, err := prof("dw")
	if err != nil {
		return nil, err
	}
	dp, err := prof("dp")
	if err != nil {
		return nil, err
	}
	order := []string{"ILU(0) Solve", "SpMV", "Reduce", "Elementwise Ops", "Extended-Precision Ops"}
	rows := make([]Table4Row, 0, len(order))
	for _, op := range order {
		rows = append(rows, Table4Row{Operation: op, ShareDW: dw[op], ShareDP: dp[op]})
	}
	return rows, nil
}

// PrintTable4 renders Table IV.
func PrintTable4(o Options, rows []Table4Row) {
	o.printf("Table IV: relative computation times, MPIR+PBiCGStab+ILU(0) on G3_circuit-like\n")
	o.printf("%-24s %12s %16s\n", "Operation", "Double-Word", "Double-Precision")
	for _, r := range rows {
		o.printf("%-24s %11.0f%% %15.0f%%\n", r.Operation, r.ShareDW*100, r.ShareDP*100)
	}
	o.printf("\n")
}

// Table5Row is one configuration of the resilience study: PBiCGStab+ILU(0)
// under a seeded silent-fault campaign, with the checkpoint/restart layer's
// cost and effectiveness measured against the unhardened fault-free baseline.
type Table5Row struct {
	Config     string  // row label
	Rate       float64 // per-consultation fault probability
	Faults     int     // injected faults
	Restarts   int
	Breakdown  string // watchdog that fired ("" = none)
	Recovered  bool
	Converged  bool
	Iterations int
	Cycles     uint64
	// Overheads are relative to the fault-free unhardened baseline (0 for
	// the baseline row itself).
	IterOverheadPct  float64
	CycleOverheadPct float64
}

// Table5 runs the resilience/overhead study on the G3_circuit-like matrix:
// the unhardened baseline, then the checkpoint/restart layer at fault rates
// 0%, 0.1% and 1% (silent faults only: bit flips in tile memory and corrupted
// exchange payloads — detectable faults are retried by the fabric model and
// do not need solver-level recovery). A run whose restart budget is exhausted
// is reported as a breakdown row instead of an error.
func Table5(o Options) ([]Table5Row, error) {
	o = o.withDefaults()
	g3, err := sparse.SuiteLikeByName("G3_circuit")
	if err != nil {
		return nil, err
	}
	m := g3.Generate(o.Scale)
	b := rhsForSolution(m)

	run := func(rate float64, recovery bool) (*core.Result, error) {
		cfg := config.Config{Solver: config.SolverConfig{
			Type: "pbicgstab", MaxIterations: 2000, Tolerance: 1e-8,
			Preconditioner: &config.SolverConfig{Type: "ilu0"},
		}}
		if recovery {
			cfg.Recovery = &config.RecoveryConfig{Interval: 10, MaxRestarts: 10}
		}
		if rate > 0 {
			cfg.Fault = &config.FaultConfig{Seed: o.Seed, Rate: rate,
				Kinds: []string{"bit-flip", "exchange-corrupt"}}
		}
		return core.Solve(o.machineConfig(1), m, b, cfg, core.PartitionContiguous)
	}

	baseline, err := run(0, false)
	if err != nil {
		return nil, err
	}
	rows := []Table5Row{{
		Config:     "baseline (no recovery)",
		Converged:  baseline.Stats.Converged,
		Iterations: baseline.Stats.Iterations,
		Cycles:     baseline.Machine.TotalCycles,
	}}
	for _, c := range []struct {
		label string
		rate  float64
	}{
		{"checkpointing, 0% faults", 0},
		{"checkpointing, 0.1% faults", 0.001},
		{"checkpointing, 1% faults", 0.01},
	} {
		res, err := run(c.rate, true)
		row := Table5Row{Config: c.label, Rate: c.rate}
		if err != nil {
			if be, ok := solver.IsBreakdown(err); ok {
				row.Breakdown = be.Reason
				row.Restarts = be.Restarts
				row.Iterations = be.Iter
				rows = append(rows, row)
				continue
			}
			return nil, err
		}
		row.Faults = len(res.Faults)
		row.Restarts = res.Stats.Restarts
		row.Breakdown = res.Stats.BreakdownReason
		row.Recovered = res.Stats.Recovered
		row.Converged = res.Stats.Converged
		row.Iterations = res.Stats.Iterations
		row.Cycles = res.Machine.TotalCycles
		if baseline.Stats.Iterations > 0 {
			row.IterOverheadPct = 100 * (float64(row.Iterations)/float64(baseline.Stats.Iterations) - 1)
		}
		if baseline.Machine.TotalCycles > 0 {
			row.CycleOverheadPct = 100 * (float64(row.Cycles)/float64(baseline.Machine.TotalCycles) - 1)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTable5 renders Table V.
func PrintTable5(o Options, rows []Table5Row) {
	o.printf("Table V: resilience study, PBiCGStab+ILU(0) on G3_circuit-like (seed %d)\n", o.withDefaults().Seed)
	o.printf("%-28s %7s %7s %9s %-15s %10s %6s %6s %10s %10s\n",
		"Configuration", "faults", "iters", "restarts", "breakdown", "recovered", "conv", "", "iterOvhd", "cycleOvhd")
	for _, r := range rows {
		bd := r.Breakdown
		if bd == "" {
			bd = "-"
		}
		o.printf("%-28s %7d %7d %9d %-15s %10v %6v %6s %9.1f%% %9.1f%%\n",
			r.Config, r.Faults, r.Iterations, r.Restarts, bd, r.Recovered, r.Converged, "",
			r.IterOverheadPct, r.CycleOverheadPct)
	}
	o.printf("\n")
}
