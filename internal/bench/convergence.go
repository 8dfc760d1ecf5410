package bench

import (
	"math"

	"ipusparse/internal/ipu"
	"ipusparse/internal/solver"
	"ipusparse/internal/sparse"
)

// ConvPoint is one sample of a convergence study: the true relative residual
// after a cumulative number of inner iterations.
type ConvPoint struct {
	Iter   int
	RelRes float64
}

// ConvSeries is the convergence history of one solver configuration.
type ConvSeries struct {
	Config string
	Points []ConvPoint
	Final  float64 // best relative residual reached
}

// trueRelRes32 computes ||b − A₃₂x||₂/||b||₂ in float64 against the
// float32-rounded matrix — the system the device actually stores, and
// therefore the honest convergence target for every precision configuration.
func trueRelRes32(m *sparse.Matrix, x, b []float64) float64 {
	var rn, bn float64
	for i := 0; i < m.N; i++ {
		s := float64(float32(m.Diag[i])) * x[i]
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += float64(float32(m.Vals[k])) * x[m.Cols[k]]
		}
		r := b[i] - s
		rn += r * r
		bn += b[i] * b[i]
	}
	return math.Sqrt(rn) / math.Sqrt(bn)
}

// convergenceStudy runs the four configurations of Figs. 9/10 on one matrix:
// PBiCGStab+ILU(0) without iterative refinement (periodic restart), with
// working-precision IR, and with MPIR using double-word and soft-double
// extended precision. Every configuration performs `inner` solver iterations
// between refinement/restart events, `rounds` times.
func convergenceStudy(o Options, fig, matrixName string, inner, rounds int) ([]ConvSeries, error) {
	o = o.withDefaults()
	prof, err := sparse.SuiteLikeByName(matrixName)
	if err != nil {
		return nil, err
	}
	m := prof.Generate(o.Scale)
	b := rhsForSolution(m)

	var out []ConvSeries

	// Configuration 1: no IR — the solver restarts directly every `inner`
	// iterations (recomputing the working-precision residual, keeping x).
	{
		sess, sys, err := newSystem(o.compareMachine(), m, 0, 0, 0)
		if err != nil {
			return nil, err
		}
		ilu := &solver.ILU{Sys: sys}
		ilu.SetupStep()
		x := sys.Vector("x")
		bt := sys.Vector("b")
		if err := sys.SetGlobal(bt, b); err != nil {
			return nil, err
		}
		series := ConvSeries{Config: "PBiCGStab+ILU(0)", Final: math.Inf(1)}
		total := 0
		for r := 0; r < rounds; r++ {
			s := &solver.PBiCGStab{
				Sys: sys, Pre: ilu, MaxIter: inner, Tol: 1e-30,
				Monitor: func(iter int) {
					total++
					rr := trueRelRes32(m, sys.GetGlobal(x), b)
					series.Points = append(series.Points, ConvPoint{Iter: total, RelRes: rr})
					if rr < series.Final {
						series.Final = rr
					}
				},
			}
			s.ScheduleSolve(x, bt, nil)
		}
		if _, err := o.run(sess, fig+"/"+series.Config, nil); err != nil {
			return nil, err
		}
		out = append(out, series)
	}

	// Configurations 2-4: IR / MPIR-DW / MPIR-DP.
	for _, cfg := range []struct {
		name string
		ext  ipu.Scalar
	}{
		{"IR-PBiCGStab+ILU(0)", ipu.F32},
		{"MPIR-DW-PBiCGStab+ILU(0)", ipu.DW},
		{"MPIR-DP-PBiCGStab+ILU(0)", ipu.F64},
	} {
		sess, sys, err := newSystem(o.compareMachine(), m, 0, 0, 0)
		if err != nil {
			return nil, err
		}
		ilu := &solver.ILU{Sys: sys}
		ilu.SetupStep()
		x := sys.VectorTyped("x", cfg.ext)
		bt := sys.VectorTyped("b", cfg.ext)
		if err := sys.SetGlobal(bt, b); err != nil {
			return nil, err
		}
		series := ConvSeries{Config: cfg.name, Final: math.Inf(1)}
		total := 0
		record := func() {
			rr := trueRelRes32(m, sys.GetGlobal(x), b)
			series.Points = append(series.Points, ConvPoint{Iter: total, RelRes: rr})
			if rr < series.Final {
				series.Final = rr
			}
		}
		mp := &solver.MPIR{
			Sys: sys, ExtType: cfg.ext,
			MakeInner: func(maxIter int) (solver.Solver, *float64) {
				return &solver.PBiCGStab{
					Sys: sys, Pre: ilu, MaxIter: maxIter, Tol: 1e-30,
					Monitor: func(iter int) { total++ },
				}, nil
			},
			InnerIters: inner,
			MaxOuter:   rounds,
			Tol:        0, // run all rounds; Final records the best residual
			Monitor:    func(outer, totalInner int) { record() },
		}
		var st solver.RunStats
		mp.ScheduleSolve(x, bt, &st)
		if _, err := o.run(sess, fig+"/"+cfg.name, &st); err != nil {
			return nil, err
		}
		record()
		out = append(out, series)
	}
	return out, nil
}

// Fig9 is the convergence study on the Geo_1438-like matrix.
func Fig9(o Options) ([]ConvSeries, error) {
	o = o.withDefaults()
	return convergenceStudy(o, "fig9", "Geo_1438", 60, 8)
}

// Fig10 is the convergence study on the af_shell7-like matrix.
func Fig10(o Options) ([]ConvSeries, error) {
	o = o.withDefaults()
	return convergenceStudy(o, "fig10", "af_shell7", 60, 8)
}

// PrintConvergence renders a convergence study.
func PrintConvergence(o Options, title string, series []ConvSeries) {
	o.printf("%s: convergence of solver configurations (true relative residual)\n", title)
	for _, s := range series {
		o.printf("  %-28s final %9.2e | ", s.Config, s.Final)
		step := len(s.Points) / 8
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(s.Points); i += step {
			o.printf("%d:%.1e ", s.Points[i].Iter, s.Points[i].RelRes)
		}
		o.printf("\n")
	}
	o.printf("\n")
}
