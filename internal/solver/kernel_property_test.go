package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ipusparse/internal/graph"
	"ipusparse/internal/halo"
	"ipusparse/internal/ipu"
	"ipusparse/internal/partition"
	"ipusparse/internal/sparse"
	"ipusparse/internal/tensordsl"
	"ipusparse/internal/twofloat"
)

// raggedSystem generates a diagonally dominant matrix with ragged row lengths
// (0 to 8 off-diagonals), one row and column with no off-diagonal at all, and
// a tail block that couples only to itself, so some partitions get a tile
// without halo cells. Right after the empty row a band of rows holds every
// count the SpMV has a row body for, in runs of 4, then 2, then 1 rows, so
// the partitions cut runs at tile boundaries; the band takes no random
// entries, and its own are not mirrored. vseed drives the values only: two
// calls that differ in vseed alone share the pattern.
func raggedSystem(n int, pseed, vseed int64) *sparse.Matrix {
	prng, vrng := rand.New(rand.NewSource(pseed)), rand.New(rand.NewSource(vseed))
	empty, tail := n/3, n-n/4
	var band []int // off-diagonal count of each band row
	for _, run := range []int{4, 2, 1} {
		for _, c := range graph.RowBodies() {
			for r := 0; r < run; r++ {
				band = append(band, int(c))
			}
		}
	}
	inBand := func(i int) bool { return i > empty && i <= empty+len(band) }
	if empty+len(band) >= tail {
		panic("raggedSystem: n too small for the band")
	}
	b := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		if inBand(i) {
			cols := prng.Perm(tail)
			for c := band[i-empty-1]; c > 0; cols = cols[1:] {
				if j := cols[0]; j != i && j != empty {
					b.Set(i, j, 1)
					c--
				}
			}
			continue
		}
		for k := prng.Intn(5); k > 0; k-- {
			j := prng.Intn(n)
			if i == j || i == empty || j == empty || (i >= tail) != (j >= tail) || inBand(j) {
				continue
			}
			b.Set(i, j, 1)
			if prng.Intn(4) > 0 { // mostly, not always, structurally symmetric
				b.Set(j, i, 1)
			}
		}
	}
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		lo, hi := m.RowRange(i)
		sum := 0.0
		for k := lo; k < hi; k++ {
			m.Vals[k] = -(vrng.Float64() + 0.1)
			sum -= m.Vals[k]
		}
		m.Diag[i] = sum + 1 + vrng.Float64()
	}
	return m
}

// spmvKernels returns the SpMV kernel descriptors of a program.
func spmvKernels(s graph.Step) []*graph.NativeKernel {
	switch st := s.(type) {
	case *graph.Sequence:
		var out []*graph.NativeKernel
		for _, sub := range st.Steps {
			out = append(out, spmvKernels(sub)...)
		}
		return out
	case graph.Compute:
		if k := st.Set.NativeKernel; k != nil && k.Kind == graph.KernelSpMV {
			return []*graph.NativeKernel{k}
		}
	case graph.Repeat:
		return spmvKernels(st.Body)
	case graph.While:
		return spmvKernels(st.Body)
	case graph.If:
		var out []*graph.NativeKernel
		for _, br := range []*graph.Sequence{st.Then, st.Else} {
			if br != nil {
				out = append(out, spmvKernels(br)...)
			}
		}
		return out
	}
	return nil
}

// checkRowBodies fails unless the SpMV kernels ran a run of every row body and
// a mixed run: sawRun holds the counts of the runs they walked.
func checkRowBodies(t *testing.T, sawRun map[int32]bool) {
	t.Helper()
	for _, c := range append(graph.RowBodies(), graph.MixedRun) {
		if !sawRun[c] {
			t.Fatalf("generator lost a row shape: no SpMV run of count %d (%d is the generic loop)", c, graph.MixedRun)
		}
	}
}

// runStraight executes a straight-line program on one backend: on the
// simulator's engine, which runs billed sets through their native kernels and
// interpreted ones through their codelets, or natively, every compute set
// through its native kernel.
func runStraight(t *testing.T, sess *tensordsl.Session, native bool) {
	t.Helper()
	if !native {
		if err := graph.NewEngine(sess.M).Run(sess.Program()); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, st := range sess.Program().Steps {
		switch s := st.(type) {
		case graph.Exchange:
			for _, mv := range s.Moves {
				if mv.Do == nil {
					continue // a reduction's gather and broadcast only bill
				}
				if err := mv.Do(); err != nil {
					t.Fatal(err)
				}
			}
		case graph.Compute:
			if s.Set.NativeKernel == nil {
				t.Fatalf("compute set %q has no native kernel", s.Set.Name)
			}
			s.Set.NativeKernel.Run()
		default:
			t.Fatalf("unexpected step %T in a kernel program", st)
		}
	}
}

// tensorBits flattens the tile buffers of the tensors into raw bit patterns.
func tensorBits(sys *System, ts ...*tensordsl.Tensor) []uint64 {
	var out []uint64
	for _, tn := range ts {
		for tile := range sys.Locals {
			buf := tn.Buf(tile)
			if buf == nil { // empty tile
				continue
			}
			for _, part := range [][]float32{buf.F32, buf.Hi, buf.Lo} {
				for _, v := range part {
					out = append(out, uint64(math.Float32bits(v)))
				}
			}
			for _, v := range buf.F64 {
				out = append(out, math.Float64bits(v))
			}
		}
	}
	return out
}

func f32Bits(blocks [][]float32) []uint64 {
	var out []uint64
	for _, b := range blocks {
		for _, v := range b {
			out = append(out, uint64(math.Float32bits(v)))
		}
	}
	return out
}

// kernelProgram is one rewritten compute set (or a preconditioner's three)
// scheduled on its own system, with the inputs to load before each run and
// the outputs to compare after it. oracle recomputes the outputs
// independently of both backends from the inputs, halo copies and factors a
// run left.
type kernelProgram struct {
	name    string
	sess    *tensordsl.Session
	sys     *System
	load    func()
	outputs func() []uint64
	oracle  func() []uint64
}

// spmvOracle is the SpMV oracle: the per-worker row loop the SpMV codelets
// ran before the simulator billed them, reading x through the owned/halo
// branch where the kernels read a gathered vector. It shares no code with
// them. It reads the halo buffers a run left and returns y flattened the way
// tensorBits does.
func spmvOracle(sys *System, x *tensordsl.Tensor) []uint64 {
	workers := sys.Sess.M.Config().WorkersPerTile
	y := make([][]float32, len(sys.Locals))
	for t, lm := range sys.Locals {
		if lm.NumOwned == 0 {
			continue
		}
		xs, h, owned := x.Buf(t).F32, sys.haloF32[t].F32, int32(lm.NumOwned)
		y[t] = make([]float32, lm.NumOwned)
		for w := 0; w < workers; w++ {
			lo, hi := lm.NumOwned*w/workers, lm.NumOwned*(w+1)/workers
			k := lm.RowPtr[lo]
			for i := lo; i < hi; i++ {
				s := sys.diag[t][i] * xs[i]
				for end := lm.RowPtr[i+1]; k < end; k++ {
					var xj float32
					if j := lm.Cols[k]; j < owned {
						xj = xs[j]
					} else {
						xj = h[j-owned]
					}
					s += sys.vals[t][k] * xj
				}
				y[t][i] = s
			}
		}
	}
	return f32Bits(y)
}

// reduceBits is what a reduction leaves: every tile's partial (double-word
// and float64 views) and the combined scalar.
func reduceBits(sess *tensordsl.Session, out *tensordsl.Tensor) []uint64 {
	var sink *graph.PartialSink
	for _, st := range sess.Program().Steps {
		if c, ok := st.(graph.Compute); ok && c.Set.Name == out.Name+":partial" {
			sink = c.Set.NativeKernel.Sink
		}
	}
	var out64 []uint64
	for t, d := range sink.DW {
		out64 = append(out64, uint64(math.Float32bits(d.Hi)), uint64(math.Float32bits(d.Lo)), math.Float64bits(sink.F64[t]))
	}
	r := out.Buf(0)
	return append(out64, uint64(math.Float32bits(r.Hi[0])), uint64(math.Float32bits(r.Lo[0])))
}

// dwNormOracle is the double-word Σ a∘b in reduceBits's layout: per populated
// tile twofloat.Mul then twofloat.Add in element order from zero, the final
// combine adding the partials in tile order.
func dwNormOracle(sys *System, a, b *tensordsl.Tensor) []uint64 {
	var out []uint64
	var total twofloat.DW
	for t, lm := range sys.Locals {
		var s twofloat.DW
		if lm.NumOwned > 0 {
			ab, bb := a.Buf(t), b.Buf(t)
			for i := range ab.Hi {
				s = twofloat.Add(s, twofloat.Mul(twofloat.DW{Hi: ab.Hi[i], Lo: ab.Lo[i]}, twofloat.DW{Hi: bb.Hi[i], Lo: bb.Lo[i]}))
			}
			total = twofloat.Add(total, s)
		}
		out = append(out, uint64(math.Float32bits(s.Hi)), uint64(math.Float32bits(s.Lo)), math.Float64bits(s.Float64()))
	}
	return append(out, uint64(math.Float32bits(total.Hi)), uint64(math.Float32bits(total.Lo)))
}

// residualOracle is the extended residual r = b − A·x written like
// spmvOracle: the residual codelets' double-word and soft-double row loops.
func residualOracle(sys *System, b, x *tensordsl.Tensor) []uint64 {
	workers := sys.Sess.M.Config().WorkersPerTile
	dw := x.Type() == ipu.DW
	halos, _ := sys.haloBuffers(x.Type())
	var out []uint64
	for t, lm := range sys.Locals {
		if lm.NumOwned == 0 {
			continue
		}
		xb, bb, hb, owned := x.Buf(t), b.Buf(t), halos[t], int32(lm.NumOwned)
		diag, vals := sys.diag[t], sys.vals[t]
		rHi, rLo, rf := make([]float32, lm.NumOwned), make([]float32, lm.NumOwned), make([]float64, lm.NumOwned)
		for w := 0; w < workers; w++ {
			lo, hi := lm.NumOwned*w/workers, lm.NumOwned*(w+1)/workers
			k := lm.RowPtr[lo]
			for i := lo; i < hi; i++ {
				if dw {
					acc := twofloat.MulFloat(twofloat.DW{Hi: xb.Hi[i], Lo: xb.Lo[i]}, diag[i])
					for end := lm.RowPtr[i+1]; k < end; k++ {
						var xj twofloat.DW
						if j := lm.Cols[k]; j < owned {
							xj = twofloat.DW{Hi: xb.Hi[j], Lo: xb.Lo[j]}
						} else {
							xj = twofloat.DW{Hi: hb.Hi[j-owned], Lo: hb.Lo[j-owned]}
						}
						acc = twofloat.Add(acc, twofloat.MulFloat(xj, vals[k]))
					}
					res := twofloat.Sub(twofloat.DW{Hi: bb.Hi[i], Lo: bb.Lo[i]}, acc)
					rHi[i], rLo[i] = res.Hi, res.Lo
					continue
				}
				acc := float64(diag[i]) * xb.F64[i]
				for end := lm.RowPtr[i+1]; k < end; k++ {
					var xj float64
					if j := lm.Cols[k]; j < owned {
						xj = xb.F64[j]
					} else {
						xj = hb.F64[j-owned]
					}
					acc += float64(vals[k]) * xj
				}
				rf[i] = bb.F64[i] - acc
			}
		}
		if dw {
			out = append(out, f32Bits([][]float32{rHi, rLo})...)
			continue
		}
		for _, v := range rf {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// naturalILUSweeps is the sweep oracle of ILU(0): forward and backward
// substitution as plain row loops, every row in natural order, scanning its
// whole stored row and keeping entries by their column. It shares no code
// with the packed sweeps both backends run.
func naturalILUSweeps(lm *halo.LocalMatrix, fvals, fdiag, z, r []float32) {
	for i := 0; i < lm.NumOwned; i++ {
		s := r[i]
		for k := lm.RowPtr[i]; k < lm.RowPtr[i+1]; k++ {
			if j := int(lm.Cols[k]); j < i {
				s -= fvals[k] * z[j]
			}
		}
		z[i] = s
	}
	for i := lm.NumOwned - 1; i >= 0; i-- {
		s := z[i]
		for k := lm.RowPtr[i]; k < lm.RowPtr[i+1]; k++ {
			if j := int(lm.Cols[k]); j > i && j < lm.NumOwned {
				s -= fvals[k] * z[j]
			}
		}
		z[i] = s / fdiag[i]
	}
}

// naturalDILUSweeps is the sweep oracle of DILU, written like
// naturalILUSweeps over the original off-diagonal values.
func naturalDILUSweeps(lm *halo.LocalMatrix, vals, fdiag, z, r []float32) {
	for i := 0; i < lm.NumOwned; i++ {
		s := r[i]
		for k := lm.RowPtr[i]; k < lm.RowPtr[i+1]; k++ {
			if j := int(lm.Cols[k]); j < i {
				s -= vals[k] * z[j]
			}
		}
		z[i] = s / fdiag[i]
	}
	for i := lm.NumOwned - 1; i >= 0; i-- {
		s := float32(0)
		for k := lm.RowPtr[i]; k < lm.RowPtr[i+1]; k++ {
			if j := int(lm.Cols[k]); j > i && j < lm.NumOwned {
				s += vals[k] * z[j]
			}
		}
		z[i] -= s / fdiag[i]
	}
}

// oracleSweeps runs a sweep oracle on every populated tile, from the r tensor
// into a fresh z, and flattens z the way tensorBits does.
func oracleSweeps(sys *System, r *tensordsl.Tensor, sweep func(t int, z, r []float32)) []uint64 {
	z := make([][]float32, len(sys.Locals))
	for t, lm := range sys.Locals {
		if lm.NumOwned > 0 {
			z[t] = make([]float32, lm.NumOwned)
			sweep(t, z[t], r.Buf(t).F32)
		}
	}
	return f32Bits(z)
}

// sweepCoverage records which shapes of packed sweep the generator produced.
type sweepCoverage struct {
	reordered, wideLevel, chain, noL, noU bool
}

// checkPackedSweeps verifies the order and layout properties of every block's
// packed sweeps: row is a permutation of the owned rows, a step only reads
// columns visited at an earlier step (so the order is a topological one),
// every entry is one the codelet's column test keeps, at its own column, and
// every array is exact-size.
func checkPackedSweeps(t *testing.T, sys *System, ts *triSchedule, cover *sweepCoverage) {
	t.Helper()
	for bi := range sys.blocks {
		b := &sys.blocks[bi]
		for d, sp := range []*sweepPack{&ts.fwd[bi], &ts.bwd[bi]} {
			lower := d == 0
			name := fmt.Sprintf("tile %d lower=%v", b.tile, lower)
			if len(sp.row) != b.owned || len(sp.end) != b.owned || (sp.diag != nil && len(sp.diag) != b.owned) {
				t.Fatalf("%s: %d rows, %d ends, %d diagonals for %d owned rows", name, len(sp.row), len(sp.end), len(sp.diag), b.owned)
			}
			if len(sp.src) != len(sp.col) || len(sp.val) != len(sp.col) {
				t.Fatalf("%s: %d columns, %d sources, %d values", name, len(sp.col), len(sp.src), len(sp.val))
			}
			if cap(sp.row) != len(sp.row) || cap(sp.end) != len(sp.end) || cap(sp.col) != len(sp.col) ||
				cap(sp.src) != len(sp.src) || cap(sp.val) != len(sp.val) || cap(sp.diag) != len(sp.diag) {
				t.Fatalf("%s: a packed array has spare capacity", name)
			}
			step := make([]int, b.owned) // step at which a row is visited, -1 before
			for i := range step {
				step[i] = -1
			}
			q, width, level := int32(0), 0, 0
			chain := b.owned > 1
			for s, i32 := range sp.row {
				i := int(i32)
				if i < 0 || i >= b.owned || step[i] >= 0 {
					t.Fatalf("%s: step %d visits row %d, out of range or visited before", name, s, i)
				}
				natural := s
				if !lower {
					natural = b.owned - 1 - s
				}
				cover.reordered = cover.reordered || i != natural
				// A step that reads nothing of the current level extends it.
				newLevel := s == 0
				kept := 0
				for k := b.rowPtr[i]; k < b.rowPtr[i+1]; k++ {
					if c := int(b.cols[k]); (lower && c < i) || (!lower && c > i && c < b.owned) {
						if q >= sp.end[s] || sp.src[q] != k || sp.col[q] != b.cols[k] {
							t.Fatalf("%s: step %d (row %d) does not pack stored entry %d next", name, s, i, k)
						}
						if step[c] < 0 {
							t.Fatalf("%s: step %d (row %d) reads column %d before its step", name, s, i, c)
						}
						newLevel = newLevel || step[c] >= level
						kept++
						q++
					}
				}
				if q != sp.end[s] {
					t.Fatalf("%s: step %d ends at entry %d, its row's entries end at %d", name, s, sp.end[s], q)
				}
				if newLevel {
					level, width = s, 0
				}
				width++
				cover.wideLevel = cover.wideLevel || width > 1
				chain = chain && width == 1
				cover.noL = cover.noL || (lower && kept == 0)
				cover.noU = cover.noU || (!lower && kept == 0)
				step[i] = s
			}
			cover.chain = cover.chain || chain
		}
	}
}

// TestNativeKernelsMatchCodelets is the kernel-vs-codelet property: on
// generated systems every rewritten compute set — SpMV, both extended
// residuals, the double-word norm partials, and the factor/forward/backward
// sets of ILU(0) and DILU — leaves exactly the bits of its oracle on both
// backends, with NaN and ±Inf among the inputs, and again after a
// values-only refresh. The simulator runs the billed sets through the native
// kernels, so the oracles stand for the codelet loops those sets no longer
// have: the per-worker SpMV and residual row loops with their owned/halo
// branch, the reduction's evaluate-then-fold, and the natural-order sweeps.
// The ILU(0) factor is interpreted, so there the native kernel must also
// match its codelets. The sweeps run packed in level order and once more
// packed in natural order: any topological order leaves the oracle's bits.
func TestNativeKernelsMatchCodelets(t *testing.T) {
	var sawNoHalo, sawEmptyTile, sawEmptyRow, sawCutRun bool
	sawRun := map[int32]bool{}
	var cover sweepCoverage
	for _, tiles := range []int{1, 3, 5, 64} {
		for _, greedy := range []bool{false, true} {
			const n = 97
			m := raggedSystem(n, int64(tiles), 1)
			refreshed := raggedSystem(n, int64(tiles), 2)
			part := partition.Contiguous(m, tiles)
			if greedy {
				part = partition.GreedyGraph(m, tiles)
			}
			newSystem := func() (*tensordsl.Session, *System) {
				cfg := ipu.DefaultConfig()
				cfg.TilesPerChip = tiles
				mach, err := ipu.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sess := tensordsl.NewSession(mach)
				sys, err := NewSystem(sess, m, part)
				if err != nil {
					t.Fatal(err)
				}
				return sess, sys
			}
			// Inputs: Gaussian with a NaN, a +Inf and a -Inf planted.
			xh, bh := randVec(n, 7), randVec(n, 8)
			xh[n/5], xh[n/2], xh[n-2] = math.NaN(), math.Inf(1), math.Inf(-1)

			var progs []kernelProgram
			{
				sess, sys := newSystem()
				x, y := sys.Vector("x"), sys.Vector("y")
				sys.SpMV(y, x)
				progs = append(progs, kernelProgram{"spmv", sess, sys,
					func() { sys.SetGlobal(x, xh); y.FillHost(7) },
					func() []uint64 { return tensorBits(sys, y) },
					func() []uint64 { return spmvOracle(sys, x) }})
				for _, lm := range sys.Locals {
					sawNoHalo = sawNoHalo || (tiles > 1 && lm.NumOwned > 0 && lm.NumHalo == 0)
					sawEmptyTile = sawEmptyTile || lm.NumOwned == 0
					for i := 0; i < lm.NumOwned; i++ {
						sawEmptyRow = sawEmptyRow || lm.RowPtr[i] == lm.RowPtr[i+1]
					}
				}
				for _, k := range spmvKernels(sess.Program()) {
					for bi, b := range k.CSR {
						for _, r := range b.Runs {
							sawRun[r.Count] = true
						}
						// A body run on the block's first row whose count the row
						// before it, on another tile, shares: a run cut by a tile
						// boundary.
						if r := b.Runs[0]; r.Count != graph.MixedRun {
							if g := sys.Layout.Tiles[sys.blocks[bi].tile].Owned[0]; g > 0 {
								lo, hi := m.RowRange(g - 1)
								sawCutRun = sawCutRun || int32(hi-lo) == r.Count
							}
						}
					}
				}
			}
			for _, ext := range []ipu.Scalar{ipu.DW, ipu.F64} {
				sess, sys := newSystem()
				x, b, r := sys.VectorTyped("x", ext), sys.VectorTyped("b", ext), sys.VectorTyped("r", ext)
				sys.ResidualExt(r, b, x)
				progs = append(progs, kernelProgram{fmt.Sprintf("residual-%v", ext), sess, sys,
					func() { sys.SetGlobal(x, xh); sys.SetGlobal(b, bh); r.FillHost(7) },
					func() []uint64 { return tensorBits(sys, r) },
					func() []uint64 { return residualOracle(sys, b, x) }})
			}
			// MPIR's double-word norms: r·r and a product of two tensors.
			for _, square := range []bool{true, false} {
				sess, sys := newSystem()
				a, c := sys.VectorTyped("a", ipu.DW), sys.VectorTyped("c", ipu.DW)
				name, other := "dw-norm-a*c", c
				if square {
					name, other = "dw-norm-a*a", a
				}
				out := sess.ReduceLabeled(tensordsl.Mul(a, other), "Reduce")
				progs = append(progs, kernelProgram{name, sess, sys,
					func() { sys.SetGlobal(a, xh); sys.SetGlobal(c, bh); out.FillHost(7) },
					func() []uint64 { return reduceBits(sess, out) },
					func() []uint64 { return dwNormOracle(sys, a, other) }})
			}
			for _, natural := range []bool{false, true} {
				sess, sys := newSystem()
				p := &ILU{Sys: sys}
				z, r := sys.Vector("z"), sys.Vector("r")
				p.SetupStep()
				p.ApplyStep(z, r)
				name, cov := "ilu0", &cover
				if natural {
					NaturalOrderSweeps(p)
					name, cov = "ilu0-natural", &sweepCoverage{} // shapes count in level order only
				}
				checkPackedSweeps(t, sys, p.tri, cov)
				progs = append(progs, kernelProgram{name, sess, sys,
					func() { sys.SetGlobal(r, xh); z.FillHost(7) },
					func() []uint64 {
						return append(append(tensorBits(sys, z), f32Bits(p.fvals)...), f32Bits(p.fdiag)...)
					},
					func() []uint64 {
						z := oracleSweeps(sys, r, func(t int, z, r []float32) {
							naturalILUSweeps(sys.Locals[t], p.fvals[t], p.fdiag[t], z, r)
						})
						return append(append(z, f32Bits(p.fvals)...), f32Bits(p.fdiag)...)
					}})
			}
			for _, natural := range []bool{false, true} {
				sess, sys := newSystem()
				p := &DILU{Sys: sys}
				z, r := sys.Vector("z"), sys.Vector("r")
				p.SetupStep()
				p.ApplyStep(z, r)
				name, cov := "dilu", &cover
				if natural {
					NaturalOrderSweeps(p)
					name, cov = "dilu-natural", &sweepCoverage{} // shapes count in level order only
				}
				checkPackedSweeps(t, sys, p.tri, cov)
				progs = append(progs, kernelProgram{name, sess, sys,
					func() { sys.SetGlobal(r, xh); z.FillHost(7) },
					func() []uint64 { return append(tensorBits(sys, z), f32Bits(p.fdiag)...) },
					func() []uint64 {
						z := oracleSweeps(sys, r, func(t int, z, r []float32) {
							naturalDILUSweeps(sys.Locals[t], sys.vals[t], p.fdiag[t], z, r)
						})
						return append(z, f32Bits(p.fdiag)...)
					}})
			}

			for _, kp := range progs {
				for _, phase := range []string{"fresh", "refreshed"} {
					if phase == "refreshed" {
						if err := kp.sys.RefreshValues(refreshed); err != nil {
							t.Fatal(err)
						}
					}
					same := func(what string, got, want []uint64) {
						t.Helper()
						if len(got) != len(want) || len(want) == 0 {
							t.Fatalf("%s: %d output words %s, want %d", kp.name, len(got), what, len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("tiles=%d greedy=%v %s (%s): output word %d is %#x %s, want %#x",
									tiles, greedy, kp.name, phase, i, got[i], what, want[i])
							}
						}
					}
					var want []uint64
					for _, native := range []bool{false, true} {
						what := "on the simulator"
						if native {
							what = "natively"
						}
						kp.load()
						runStraight(t, kp.sess, native)
						got := kp.outputs()
						same(what+" (oracle)", got, kp.oracle())
						if native {
							same(what, got, want)
						}
						want = got
					}
				}
			}
		}
	}
	if !sawNoHalo || !sawEmptyTile || !sawEmptyRow || !sawCutRun {
		t.Fatalf("generator lost an edge case: multi-tile block without halo %v, empty tile %v, empty row %v, "+
			"row run cut by a tile boundary %v", sawNoHalo, sawEmptyTile, sawEmptyRow, sawCutRun)
	}
	checkRowBodies(t, sawRun)
	if cover != (sweepCoverage{true, true, true, true, true}) {
		t.Fatalf("generator lost a sweep shape: %+v", cover)
	}
}
