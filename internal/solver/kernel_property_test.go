package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
	"ipusparse/internal/partition"
	"ipusparse/internal/sparse"
	"ipusparse/internal/tensordsl"
)

// raggedSystem generates a diagonally dominant matrix with ragged row lengths
// (0 to 8 off-diagonals), one row and column with no off-diagonal at all, and
// a tail block that couples only to itself, so some partitions get a tile
// without halo cells. vseed drives the values only: two calls that differ in
// vseed alone share the pattern.
func raggedSystem(n int, pseed, vseed int64) *sparse.Matrix {
	prng, vrng := rand.New(rand.NewSource(pseed)), rand.New(rand.NewSource(vseed))
	empty, tail := n/3, n-n/4
	b := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		for k := prng.Intn(5); k > 0; k-- {
			j := prng.Intn(n)
			if i == j || i == empty || j == empty || (i >= tail) != (j >= tail) {
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

// runStraight executes a straight-line program: exchanges always, every
// compute set through its native kernel or through its codelets.
func runStraight(t *testing.T, prog *graph.Sequence, native bool) {
	t.Helper()
	for _, st := range prog.Steps {
		switch s := st.(type) {
		case graph.Exchange:
			for _, mv := range s.Moves {
				if err := mv.Do(); err != nil {
					t.Fatal(err)
				}
			}
		case graph.Compute:
			switch {
			case !native:
				for _, c := range s.Set.Vertices() {
					c.Run()
				}
			case s.Set.NativeKernel == nil:
				t.Fatalf("compute set %q has no native kernel", s.Set.Name)
			default:
				s.Set.NativeKernel.Run()
			}
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
// the outputs to compare after it.
type kernelProgram struct {
	name    string
	sess    *tensordsl.Session
	sys     *System
	load    func()
	outputs func() []uint64
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
// generated systems every rewritten compute set's native kernel leaves exactly
// the bits its codelets leave — SpMV, both extended residuals, and the
// factor/forward/backward sets of ILU(0) and DILU — with NaN and ±Inf among
// the inputs, and again after a values-only refresh. The sweeps run packed in
// level order and once more packed in natural order: any topological order
// leaves the codelets' bits.
func TestNativeKernelsMatchCodelets(t *testing.T) {
	var sawNoHalo, sawEmptyTile, sawEmptyRow bool
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
					func() []uint64 { return tensorBits(sys, y) }})
				for _, lm := range sys.Locals {
					sawNoHalo = sawNoHalo || (tiles > 1 && lm.NumOwned > 0 && lm.NumHalo == 0)
					sawEmptyTile = sawEmptyTile || lm.NumOwned == 0
					for i := 0; i < lm.NumOwned; i++ {
						sawEmptyRow = sawEmptyRow || lm.RowPtr[i] == lm.RowPtr[i+1]
					}
				}
			}
			for _, ext := range []ipu.Scalar{ipu.DW, ipu.F64} {
				sess, sys := newSystem()
				x, b, r := sys.VectorTyped("x", ext), sys.VectorTyped("b", ext), sys.VectorTyped("r", ext)
				sys.ResidualExt(r, b, x)
				progs = append(progs, kernelProgram{fmt.Sprintf("residual-%v", ext), sess, sys,
					func() { sys.SetGlobal(x, xh); sys.SetGlobal(b, bh); r.FillHost(7) },
					func() []uint64 { return tensorBits(sys, r) }})
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
					func() []uint64 { return append(tensorBits(sys, z), f32Bits(p.fdiag)...) }})
			}

			for _, kp := range progs {
				for _, phase := range []string{"fresh", "refreshed"} {
					if phase == "refreshed" {
						if err := kp.sys.RefreshValues(refreshed); err != nil {
							t.Fatal(err)
						}
					}
					kp.load()
					runStraight(t, kp.sess.Program(), false)
					want := kp.outputs()
					kp.load()
					runStraight(t, kp.sess.Program(), true)
					got := kp.outputs()
					if len(got) != len(want) || len(want) == 0 {
						t.Fatalf("%s: %d output words, codelets left %d", kp.name, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("tiles=%d greedy=%v %s (%s): output word %d is %#x natively, %#x from the codelets",
								tiles, greedy, kp.name, phase, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	if !sawNoHalo || !sawEmptyTile || !sawEmptyRow {
		t.Fatalf("generator lost an edge case: multi-tile block without halo %v, empty tile %v, empty row %v",
			sawNoHalo, sawEmptyTile, sawEmptyRow)
	}
	if cover != (sweepCoverage{true, true, true, true, true}) {
		t.Fatalf("generator lost a sweep shape: %+v", cover)
	}
}
