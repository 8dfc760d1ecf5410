// Native-backend gates and microbenchmarks: the zero-alloc gates on the warm
// serving paths (SolveInto on the service default hierarchy, UpdateValues)
// and one benchmark per native kernel class.
//
//	go test -bench=BenchmarkNativeKernels -benchmem
//
// In -short mode (the CI smoke step) the workloads shrink to a 64-tile
// machine so one iteration completes in milliseconds.
package ipusparse

import (
	"testing"
	"time"

	"ipusparse/internal/config"
	"ipusparse/internal/core"
	"ipusparse/internal/fault"
	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
	"ipusparse/internal/partition"
	"ipusparse/internal/solver"
	"ipusparse/internal/sparse"
	"ipusparse/internal/tensordsl"
)

// engineBenchScale returns the machine of the zero-alloc gates: the full
// M2000 (1472 tiles per chip) normally, 64 tiles under -short. Their grid
// stays at gateGrid either way: the gates are about allocations, not scale.
func engineBenchScale() ipu.Config {
	cfg := ipu.Mk2M2000()
	if testing.Short() {
		cfg.TilesPerChip = 64
		cfg.Chips = 1
	}
	return cfg
}

const gateGrid = 16 // Poisson grid edge of the gates (16^3 rows)

// TestNativeMPIRZeroAlloc is the hard gate on the service default hierarchy:
// a warm native SolveInto of mpir-dw+pbicgstab+ilu0 — re-factorization,
// level-set sweeps, double-word residuals and all — must not allocate. It is
// the sibling of TestNativeRefreshZeroAlloc and rides bench-backend-smoke.
func TestNativeMPIRZeroAlloc(t *testing.T) {
	cfg := engineBenchScale()
	m := sparse.Poisson3D(gateGrid, gateGrid, gateGrid)
	prep, err := core.Prepare(cfg, m, config.Default(), core.PartitionContiguous, core.WithBackend("native"))
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, m.N)
	for i := range rhs {
		rhs[i] = 1
	}
	x := make([]float64, m.N)
	st, err := prep.SolveInto(x, rhs) // warm-up grows every buffer once
	if err != nil || !st.Converged {
		t.Fatalf("warm-up solve: %+v, %v", st, err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := prep.SolveInto(x, rhs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm native %s allocates %.1f objects per solve, want 0", st.Solver, allocs)
	}
}

// TestNativeRefreshZeroAlloc is the hard gate on the streaming path: after
// the first refresh builds its reused rewrite closure, the native values-only
// refresh hot path must not allocate at all.
func TestNativeRefreshZeroAlloc(t *testing.T) {
	cfg := engineBenchScale()
	m := sparse.Poisson3D(gateGrid, gateGrid, gateGrid)
	sc := config.Config{Solver: config.SolverConfig{
		Type: "cg", MaxIterations: 10, Tolerance: 1e-10,
		Preconditioner: &config.SolverConfig{Type: "jacobi"},
	}}
	prep, err := core.Prepare(cfg, m, sc, core.PartitionContiguous, core.WithBackend("native"))
	if err != nil {
		t.Fatal(err)
	}
	// Two same-pattern value generations to alternate between, so every
	// refresh rewrites real deltas.
	var gens [2]*sparse.Matrix
	for g := range gens {
		gm := m.Clone()
		for i := range gm.Diag {
			gm.Diag[i] *= 1 + 0.002*float64(1+(i+g)%7)
		}
		gens[g] = gm
	}
	if err := prep.UpdateValues(gens[0]); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		i++
		if err := prep.UpdateValues(gens[i%2]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("native UpdateValues allocates %.1f objects per refresh, want 0", allocs)
	}
}

// BenchmarkPrepare times a cold native Prepare — partition, halo layout,
// localization, schedule building, lowering — on the two served shapes: the
// cost every register and every replica build pays before its first solve.
//
//	go test -run '^$' -bench BenchmarkPrepare -benchmem
func BenchmarkPrepare(b *testing.B) {
	cfg := ipu.Mk2M2000()
	cfg.TilesPerChip, cfg.Chips = 64, 1
	cgJacobi := config.Config{Solver: config.SolverConfig{
		Type: "cg", MaxIterations: 2000, Tolerance: 1e-6,
		Preconditioner: &config.SolverConfig{Type: "jacobi"},
	}}
	for _, tc := range []struct {
		name string
		m    *sparse.Matrix
		sc   config.Config
	}{
		{"serve-cg", sparse.Poisson3D(32, 32, 32), cgJacobi},
		{"serve-mpir", sparse.Poisson3D(24, 24, 24), config.Default()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Prepare(cfg, tc.m, tc.sc, core.PartitionContiguous, core.WithBackend("native")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// kernelBenchMatrix is the system of the kernel benchmarks: poisson3d:32,
// poisson3d:16 under -short.
func kernelBenchMatrix() *sparse.Matrix {
	n := 32
	if testing.Short() {
		n = 16
	}
	return sparse.Poisson3D(n, n, n)
}

// compileNativeKernel lowers the program schedule builds on a served-shape
// system of m (64 tiles, contiguous partition): the compute set under test
// plus whatever exchange it needs, nothing else.
// schedule returns the bytes one run moves, computed from array sizes (4-byte
// values and indices), so the MB/s column is a computed rate, not a measured
// one. The stream has run natively once.
func compileNativeKernel(b *testing.B, m *sparse.Matrix, schedule func(sys *solver.System, m *sparse.Matrix) int64) (*graph.Stream, int64, graph.RunStats) {
	cfg := ipu.Mk2M2000()
	cfg.TilesPerChip, cfg.Chips = 64, 1
	mach, err := ipu.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sess := tensordsl.NewSession(mach)
	sys, err := solver.NewSystem(sess, m, partition.Contiguous(m, mach.NumTiles()))
	if err != nil {
		b.Fatal(err)
	}
	bytes := schedule(sys, m)
	prog := sess.Program()
	graph.Freeze(prog)
	exec, err := graph.Lower(prog, mach.NumTiles())
	if err != nil {
		b.Fatal(err)
	}
	warm, err := exec.Run(nil)
	if err != nil {
		b.Fatal(err)
	}
	return exec, bytes, warm
}

// timeRuns is the measured part of a kernel benchmark: b.N runs of exec.
func timeRuns(b *testing.B, exec *graph.Stream, bytes int64) {
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// reportRuns times b.N more runs of exec, after timeRuns has stopped the
// benchmark's own timer, and reports them as a second column next to ns/op.
func reportRuns(b *testing.B, exec *graph.Stream, inj graph.Injector, unit string) {
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(inj); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N), unit)
}

// benchmarkNativeKernel times one native run of the program schedule builds
// on m. When the program runs as a fused kernel, unfused-ns/op is the same
// program run kernel by kernel right after.
func benchmarkNativeKernel(b *testing.B, m *sparse.Matrix, schedule func(sys *solver.System, m *sparse.Matrix) int64) {
	exec, bytes, warm := compileNativeKernel(b, m, schedule)
	timeRuns(b, exec, bytes)
	if warm.FusedSets > 0 {
		// An armed injector, here one that never fires, gets the unfused stream.
		reportRuns(b, exec, fault.New(fault.Plan{}), "unfused-ns/op")
	}
}

// benchmarkSweeps times one application (forward and backward sweep) of the
// preconditioner newPrecond builds, factored once on the first run.
// natural-ns/op is the same packed kernel built in natural row order, where
// on a stencil every row waits for the row before it: the difference is what
// level order buys, the rest of the gain over the parent is the packing.
// rowBytes is what the two sweeps move per row beside the entries.
func benchmarkSweeps(b *testing.B, m *sparse.Matrix, rowBytes int, newPrecond func(sys *solver.System) solver.Preconditioner) {
	schedule := func(natural bool) func(sys *solver.System, m *sparse.Matrix) int64 {
		return func(sys *solver.System, m *sparse.Matrix) int64 {
			p := newPrecond(sys)
			factored := false
			sys.Sess.If(func() bool { return !factored }, func() {
				p.SetupStep()
				sys.Sess.HostCallback("factored", func() error { factored = true; return nil })
			}, nil)
			p.ApplyStep(sys.Vector("z"), benchVector(b, sys, "r", ipu.F32))
			if natural {
				solver.NaturalOrderSweeps(p)
			}
			// Packed value + column per owned off-diagonal the sweeps keep
			// (couplings into the halo are disregarded), rowBytes per row.
			entries := 0
			for _, lm := range sys.Locals {
				for i := 0; i < lm.NumOwned; i++ {
					for _, c := range lm.Cols[lm.RowPtr[i]:lm.RowPtr[i+1]] {
						if int(c) < lm.NumOwned {
							entries++
						}
					}
				}
			}
			return int64(8*entries + rowBytes*m.N)
		}
	}
	natural, _, _ := compileNativeKernel(b, m, schedule(true))
	exec, bytes, _ := compileNativeKernel(b, m, schedule(false))
	timeRuns(b, exec, bytes)
	reportRuns(b, natural, nil, "natural-ns/op")
}

// benchVector is a system vector holding a fixed non-trivial pattern.
func benchVector(b *testing.B, sys *solver.System, name string, dt ipu.Scalar) *tensordsl.Tensor {
	v := sys.VectorTyped(name, dt)
	h := make([]float64, sys.N())
	for i := range h {
		h[i] = 1 + 0.5*float64(i%17)/17
	}
	if err := sys.SetGlobal(v, h); err != nil {
		b.Fatal(err)
	}
	return v
}

// BenchmarkNativeKernels measures each kernel class of the two served
// hierarchies' iteration loops on its own: the per-kernel evidence behind the
// benchmark ladder's backend.exec_ms and backend.iter_us.
func BenchmarkNativeKernels(b *testing.B) {
	// Matrix traffic of one sweep over all stored entries: value + column per
	// off-diagonal, diagonal + row pointer per row.
	matrixBytes := func(m *sparse.Matrix) int64 { return int64(8*(m.NNZ()-m.N) + 8*m.N) }
	poisson := kernelBenchMatrix()
	b.Run("spmv-f32", func(b *testing.B) {
		benchmarkNativeKernel(b, poisson, func(sys *solver.System, m *sparse.Matrix) int64 {
			sys.SpMV(sys.Vector("y"), benchVector(b, sys, "x", ipu.F32))
			return matrixBytes(m) + int64(8*m.N)
		})
	})
	b.Run("residual-dw", func(b *testing.B) {
		benchmarkNativeKernel(b, poisson, func(sys *solver.System, m *sparse.Matrix) int64 {
			x, rhs := benchVector(b, sys, "x", ipu.DW), benchVector(b, sys, "b", ipu.DW)
			sys.ResidualExt(sys.VectorTyped("r", ipu.DW), rhs, x)
			return matrixBytes(m) + int64(24*m.N)
		})
	})
	// Per row, forward: row, end, r, z; backward: row, end, diagonal, z read
	// and written. DILU's forward sweep divides too.
	b.Run("ilu0-apply", func(b *testing.B) {
		benchmarkSweeps(b, poisson, 36, func(sys *solver.System) solver.Preconditioner { return &solver.ILU{Sys: sys} })
	})
	b.Run("dilu-apply", func(b *testing.B) {
		benchmarkSweeps(b, poisson, 40, func(sys *solver.System) solver.Preconditioner { return &solver.DILU{Sys: sys} })
	})
	b.Run("dot", func(b *testing.B) {
		benchmarkNativeKernel(b, poisson, func(sys *solver.System, m *sparse.Matrix) int64 {
			sys.Sess.Dot(benchVector(b, sys, "x", ipu.F32), benchVector(b, sys, "y", ipu.F32))
			return int64(8 * m.N)
		})
	})
	// MPIR's ‖r‖² of the double-word outer residual: a DW product and a DW
	// sum per element, straight into the reduction partials.
	b.Run("dw-norm", func(b *testing.B) {
		benchmarkNativeKernel(b, poisson, func(sys *solver.System, m *sparse.Matrix) int64 {
			r := benchVector(b, sys, "r", ipu.DW)
			sys.Sess.ReduceLabeled(tensordsl.Mul(r, r), "Reduce")
			return int64(8 * m.N)
		})
	})
	b.Run("assign-2term", func(b *testing.B) {
		benchmarkNativeKernel(b, poisson, func(sys *solver.System, m *sparse.Matrix) int64 {
			x, y := benchVector(b, sys, "x", ipu.F32), benchVector(b, sys, "y", ipu.F32)
			alpha := sys.Sess.MustScalar("alpha", ipu.F32)
			alpha.SetValue(0.5)
			sys.Vector("z").Assign(tensordsl.Sub(x, tensordsl.Mul(alpha, y)))
			return int64(12 * m.N)
		})
	})
	b.Run("assign-3term", func(b *testing.B) {
		benchmarkNativeKernel(b, poisson, func(sys *solver.System, m *sparse.Matrix) int64 {
			r, v := benchVector(b, sys, "r", ipu.F32), benchVector(b, sys, "v", ipu.F32)
			beta, omega := sys.Sess.MustScalar("beta", ipu.F32), sys.Sess.MustScalar("omega", ipu.F32)
			beta.SetValue(0.5)
			omega.SetValue(0.25)
			// PBiCGStab's direction update, into a separate p so repeated
			// runs stay bounded.
			p := benchVector(b, sys, "p", ipu.F32)
			sys.Vector("pn").Assign(tensordsl.Add(r, tensordsl.Mul(beta, tensordsl.Sub(p, tensordsl.Mul(omega, v)))))
			return int64(16 * m.N)
		})
	})
	// The fused groups of the two served iteration loops, one sweep each; the
	// unfused-ns/op column is the same group run kernel by kernel.
	b.Run("spmv+dot", func(b *testing.B) {
		benchmarkNativeKernel(b, poisson, func(sys *solver.System, m *sparse.Matrix) int64 {
			x, y := benchVector(b, sys, "x", ipu.F32), sys.Vector("y")
			sys.SpMV(y, x)
			sys.Sess.Dot(x, y) // CG's p·Ap
			return matrixBytes(m) + int64(8*m.N)
		})
	})
	// The same group on two other patterns: stencil27:16, whose rows of 26
	// and 17 entries take the SpMV's longest row bodies, and a scattered
	// pattern whose runs are about one row long, so nearly every row takes
	// the generic row loop.
	for _, p := range []struct {
		name string
		m    *sparse.Matrix
	}{
		{"spmv+dot-stencil27", sparse.Stencil27(16, 16, 16)},
		{"spmv+dot-scattered", sparse.RandomSPD(16384, 6, 1)},
	} {
		b.Run(p.name, func(b *testing.B) {
			benchmarkNativeKernel(b, p.m, func(sys *solver.System, m *sparse.Matrix) int64 {
				x, y := benchVector(b, sys, "x", ipu.F32), sys.Vector("y")
				sys.SpMV(y, x)
				sys.Sess.Dot(x, y)
				return matrixBytes(m) + int64(8*m.N)
			})
		})
	}
	b.Run("spmv+2dot", func(b *testing.B) {
		benchmarkNativeKernel(b, poisson, func(sys *solver.System, m *sparse.Matrix) int64 {
			x, s, t := benchVector(b, sys, "x", ipu.F32), benchVector(b, sys, "s", ipu.F32), sys.Vector("t")
			sys.SpMV(t, x)
			sys.Sess.Dot(t, s) // PBiCGStab's t·s and t·t
			sys.Sess.Dot(t, t)
			return matrixBytes(m) + int64(12*m.N)
		})
	})
	b.Run("cg-update", func(b *testing.B) {
		benchmarkNativeKernel(b, poisson, func(sys *solver.System, m *sparse.Matrix) int64 {
			p, q, invd := benchVector(b, sys, "p", ipu.F32), benchVector(b, sys, "q", ipu.F32), benchVector(b, sys, "invd", ipu.F32)
			alpha := sys.Sess.MustScalar("alpha", ipu.F32)
			alpha.SetValue(1e-3)
			// Into fresh x and r from fixed x0 and r0, so repeated runs stay
			// bounded: two axpys, the Jacobi product and both dots.
			x0, r0 := benchVector(b, sys, "x0", ipu.F32), benchVector(b, sys, "r0", ipu.F32)
			x, r, z := sys.Vector("x"), sys.Vector("r"), sys.Vector("z")
			x.Assign(tensordsl.Add(x0, tensordsl.Mul(alpha, p)))
			r.Assign(tensordsl.Sub(r0, tensordsl.Mul(alpha, q)))
			z.Assign(tensordsl.Mul(invd, r))
			sys.Sess.Dot(r, z)
			sys.Sess.Dot(r, r)
			return int64(32 * m.N)
		})
	})
	b.Run("bicg-update", func(b *testing.B) {
		benchmarkNativeKernel(b, poisson, func(sys *solver.System, m *sparse.Matrix) int64 {
			y, z, s, t := benchVector(b, sys, "y", ipu.F32), benchVector(b, sys, "z", ipu.F32), benchVector(b, sys, "s", ipu.F32), benchVector(b, sys, "t", ipu.F32)
			alpha, omega := sys.Sess.MustScalar("alpha", ipu.F32), sys.Sess.MustScalar("omega", ipu.F32)
			alpha.SetValue(1e-3)
			omega.SetValue(0.25)
			x0 := benchVector(b, sys, "x0", ipu.F32)
			x, r := sys.Vector("x"), sys.Vector("r")
			x.Assign(tensordsl.Add(x0, tensordsl.Add(tensordsl.Mul(alpha, y), tensordsl.Mul(omega, z))))
			r.Assign(tensordsl.Sub(s, tensordsl.Mul(omega, t)))
			sys.Sess.Dot(r, r)
			return int64(28 * m.N)
		})
	})
	// A dot whose products are 2 % subnormal, the share the last refinement
	// of serve-mpir sees (residual ~1e-10·|b|): the microcode assist per
	// subnormal product is what PBiCGStab's fusions cannot hide there.
	b.Run("dot-subnormal", func(b *testing.B) {
		benchmarkNativeKernel(b, poisson, func(sys *solver.System, m *sparse.Matrix) int64 {
			h := make([]float64, sys.N())
			for i := range h {
				h[i] = 1e-10
				if i%50 == 0 {
					h[i] = 1e-20 // squares to 1e-40, below float32's normal range
				}
			}
			x := sys.Vector("x")
			if err := sys.SetGlobal(x, h); err != nil {
				b.Fatal(err)
			}
			sys.Sess.Dot(x, x)
			return int64(8 * m.N)
		})
	})
}
