// Benchmarks regenerating the paper's tables and figures (one per artifact)
// plus ablations of the design choices called out in DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks execute the corresponding internal/bench
// experiment at a reduced scale; cmd/benchsuite prints the full tables.
package ipusparse

import (
	"io"
	"testing"

	"ipusparse/internal/bench"
	"ipusparse/internal/graph"
	"ipusparse/internal/halo"
	"ipusparse/internal/ipu"
	"ipusparse/internal/levelset"
	"ipusparse/internal/partition"
	"ipusparse/internal/ref"
	"ipusparse/internal/solver"
	"ipusparse/internal/sparse"
	"ipusparse/internal/tensordsl"
	"ipusparse/internal/twofloat"
)

func benchOpts() bench.Options {
	return bench.Options{Scale: 256, Tiles: 16, Seed: 7, Out: io.Discard}
}

// --- one benchmark per paper artifact ---------------------------------------

func BenchmarkTable1FloatTypes(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table1(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Matrices(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Architectures(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		_ = bench.Table3(o)
	}
}

func BenchmarkTable4MPIRProfile(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table4(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5StrongScaling(b *testing.B) {
	o := benchOpts()
	o.Scale = 512 // five machine builds per iteration
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig5(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6WeakScaling(b *testing.B) {
	o := benchOpts()
	o.Scale = 512
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig6(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7SpMVComparison(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig7(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8SolverComparison(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig8(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9ConvergenceGeo(b *testing.B) {
	o := benchOpts()
	o.Scale = 1024
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig9(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10ConvergenceAfShell(b *testing.B) {
	o := benchOpts()
	o.Scale = 1024
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10(o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- kernel microbenchmarks --------------------------------------------------

// BenchmarkSimulatedSpMV measures the wall cost of simulating one distributed
// SpMV (functional execution + cycle accounting), the unit of figs. 5-7.
func BenchmarkSimulatedSpMV(b *testing.B) {
	m := sparse.Poisson3D(24, 24, 24)
	cfg := ipu.DefaultConfig()
	mach, err := ipu.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sess := tensordsl.NewSession(mach)
	p := partition.Grid3DAuto(m, 24, 24, 24, mach.NumTiles())
	sys, err := solver.NewSystem(sess, m, p)
	if err != nil {
		b.Fatal(err)
	}
	x := sys.Vector("x")
	y := sys.Vector("y")
	xh := make([]float64, m.N)
	for i := range xh {
		xh[i] = float64(i % 7)
	}
	if err := sys.SetGlobal(x, xh); err != nil {
		b.Fatal(err)
	}
	sys.SpMV(y, x)
	prog := sess.Program()
	eng := graph.NewEngine(mach)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(m.NNZ() * 8))
}

// BenchmarkHostSpMV anchors the simulator against the plain Go float64 CSR
// kernel on this machine.
func BenchmarkHostSpMV(b *testing.B) {
	m := sparse.Poisson3D(24, 24, 24)
	x := make([]float64, m.N)
	y := make([]float64, m.N)
	for i := range x {
		x[i] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.SpMV(m, x, y)
	}
	b.SetBytes(int64(m.NNZ() * 12))
}

// --- ablations (DESIGN.md §5) -------------------------------------------------

// BenchmarkAblationHaloBlockwise measures the exchange cost of the paper's
// region-blockwise broadcast program...
func BenchmarkAblationHaloBlockwise(b *testing.B) {
	benchmarkHalo(b, false)
}

// BenchmarkAblationHaloPerCell ...versus the Burchard-style per-cell program
// it improves upon. Compare both instruction counts (communication-program
// size) and simulated cycles.
func BenchmarkAblationHaloPerCell(b *testing.B) {
	benchmarkHalo(b, true)
}

func benchmarkHalo(b *testing.B, perCell bool) {
	m := sparse.Poisson3D(20, 20, 20)
	p := partition.Grid3DAuto(m, 20, 20, 20, 64)
	l, err := halo.Build(m, p)
	if err != nil {
		b.Fatal(err)
	}
	prog := l.Program
	if perCell {
		prog = l.PerCellProgram()
	}
	cfg := ipu.DefaultConfig()
	mach, err := ipu.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	transfers := make([]ipu.Transfer, 0, len(prog))
	for _, tr := range prog {
		dst := make([]int, len(tr.Dst))
		for i, d := range tr.Dst {
			dst[i] = d.Tile
		}
		transfers = append(transfers, ipu.Transfer{SrcTile: tr.SrcTile, Bytes: 4 * tr.Len, DstTiles: dst})
	}
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := mach.Exchange(transfers)
		cycles = st.Cycles
	}
	b.ReportMetric(float64(len(transfers)), "instructions")
	b.ReportMetric(float64(cycles), "cycles")
}

// BenchmarkAblationDWJoldes measures the accurate double-word family the MPIR
// solver uses...
func BenchmarkAblationDWJoldes(b *testing.B) {
	x, y := twofloat.FromFloat64(1.234567890123), twofloat.FromFloat64(0.987654321098)
	var s twofloat.DW
	for i := 0; i < b.N; i++ {
		s = twofloat.Add(twofloat.Mul(x, y), s)
	}
	_ = s
}

// BenchmarkAblationDWLangeRump ...versus the faster Lange-Rump-style family
// (fewer operations, looser error growth across dependent chains).
func BenchmarkAblationDWLangeRump(b *testing.B) {
	x, y := twofloat.FromFloat64(1.234567890123), twofloat.FromFloat64(0.987654321098)
	var s twofloat.DW
	for i := 0; i < b.N; i++ {
		s = twofloat.AddFast(twofloat.MulFast(x, y), s)
	}
	_ = s
}

// BenchmarkAblationLevelSetScheduled measures the modeled triangular-solve
// cost with level-set scheduling across six workers...
func BenchmarkAblationLevelSetScheduled(b *testing.B) {
	m := sparse.Poisson2D(64, 64)
	s := levelset.Lower(m.N, m.RowPtr, m.Cols)
	cost := func(row int) uint64 { return 30 }
	var c uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c = s.ParallelCost(6, cost, 32)
	}
	b.ReportMetric(float64(c), "cycles")
}

// BenchmarkAblationLevelSetSequential ...versus the single-worker sequential
// sweep it replaces.
func BenchmarkAblationLevelSetSequential(b *testing.B) {
	m := sparse.Poisson2D(64, 64)
	s := levelset.Lower(m.N, m.RowPtr, m.Cols)
	cost := func(row int) uint64 { return 30 }
	var c uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c = s.SequentialCost(cost)
	}
	b.ReportMetric(float64(c), "cycles")
}

// BenchmarkAblationFusedExpression measures one fused materialization of
// y = (x+1)*2 - x/4 (a single generated codelet per tile)...
func BenchmarkAblationFusedExpression(b *testing.B) {
	benchmarkFusion(b, true)
}

// BenchmarkAblationEagerExpression ...versus eager per-operation
// materialization (one codelet and temporary per op), quantifying the
// paper's late-materialization design choice.
func BenchmarkAblationEagerExpression(b *testing.B) {
	benchmarkFusion(b, false)
}

func benchmarkFusion(b *testing.B, fused bool) {
	cfg := ipu.DefaultConfig()
	mach, err := ipu.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sess := tensordsl.NewSession(mach)
	n := 64 * 100
	sizes := make([]int, mach.NumTiles())
	for i := range sizes {
		sizes[i] = n / mach.NumTiles()
	}
	x := sess.MustTensor("x", ipu.F32, sizes)
	y := sess.MustTensor("y", ipu.F32, sizes)
	if fused {
		y.Assign(tensordsl.Sub(tensordsl.Mul(tensordsl.Add(x, 1.0), 2.0), tensordsl.Div(x, 4.0)))
	} else {
		t1 := sess.Temp(tensordsl.Add(x, 1.0))
		t2 := sess.Temp(tensordsl.Mul(t1, 2.0))
		t3 := sess.Temp(tensordsl.Div(x, 4.0))
		y.Assign(tensordsl.Sub(t2, t3))
	}
	prog := sess.Program()
	eng := graph.NewEngine(mach)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(prog.Len()), "program-steps")
	b.ReportMetric(float64(mach.Stats().ComputeCycles)/float64(b.N), "cycles/op")
}

// BenchmarkAblationModifiedCRS measures SpMV over the paper's modified CRS
// (separate dense diagonal)...
func BenchmarkAblationModifiedCRS(b *testing.B) {
	m := sparse.Poisson3D(20, 20, 20)
	x := make([]float64, m.N)
	y := make([]float64, m.N)
	for i := range x {
		x[i] = float64(i % 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x, y)
	}
	b.ReportMetric(float64(m.Bytes()), "bytes")
}

// BenchmarkAblationPlainCSR ...versus conventional CSR with the diagonal
// stored in-line (larger footprint: explicit diagonal column indices).
func BenchmarkAblationPlainCSR(b *testing.B) {
	m := sparse.Poisson3D(20, 20, 20).ToCSR()
	x := make([]float64, m.N)
	y := make([]float64, m.N)
	for i := range x {
		x[i] = float64(i % 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x, y)
	}
	b.ReportMetric(float64(m.Bytes()), "bytes")
}

// BenchmarkAblationCoarseCorrection measures a full solve with the two-level
// coarse correction over local ILU(0)...
func BenchmarkAblationCoarseCorrection(b *testing.B) {
	benchmarkCoarse(b, true)
}

// BenchmarkAblationLocalILUOnly ...versus plain tile-local ILU(0), showing
// the iteration reduction the paper's §VI-D Schur-complement discussion
// anticipates.
func BenchmarkAblationLocalILUOnly(b *testing.B) {
	benchmarkCoarse(b, false)
}

func benchmarkCoarse(b *testing.B, coarse bool) {
	m := sparse.Poisson2D(32, 32)
	var iters int
	for i := 0; i < b.N; i++ {
		cfg := ipu.DefaultConfig()
		cfg.TilesPerChip = 32
		mach, err := ipu.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sess := tensordsl.NewSession(mach)
		p := partition.Contiguous(m, mach.NumTiles())
		sys, err := solver.NewSystem(sess, m, p)
		if err != nil {
			b.Fatal(err)
		}
		x := sys.Vector("x")
		bt := sys.Vector("b")
		bh := make([]float64, m.N)
		for j := range bh {
			bh[j] = float64(j%7) - 3
		}
		if err := sys.SetGlobal(bt, bh); err != nil {
			b.Fatal(err)
		}
		var pre solver.Preconditioner = &solver.ILU{Sys: sys}
		if coarse {
			pre = &solver.CoarseCorrection{Sys: sys, Fine: &solver.ILU{Sys: sys}}
		}
		s := &solver.PBiCGStab{Sys: sys, Pre: pre, MaxIter: 600, Tol: 1e-6, SetupPre: true}
		var st solver.RunStats
		s.ScheduleSolve(x, bt, &st)
		eng := graph.NewEngine(mach)
		if err := eng.Run(sess.Program()); err != nil {
			b.Fatal(err)
		}
		if !st.Converged {
			b.Fatal("no convergence")
		}
		iters = st.Iterations
	}
	b.ReportMetric(float64(iters), "iterations")
}
