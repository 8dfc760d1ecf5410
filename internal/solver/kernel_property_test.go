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

// TestNativeKernelsMatchCodelets is the kernel-vs-codelet property: on
// generated systems every rewritten compute set's native kernel leaves exactly
// the bits its codelets leave — SpMV, both extended residuals, and the
// factor/forward/backward sets of ILU(0) and DILU — with NaN and ±Inf among
// the inputs, and again after a values-only refresh.
func TestNativeKernelsMatchCodelets(t *testing.T) {
	var sawNoHalo, sawEmptyTile, sawEmptyRow bool
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
			{
				sess, sys := newSystem()
				p := &ILU{Sys: sys}
				z, r := sys.Vector("z"), sys.Vector("r")
				p.SetupStep()
				p.ApplyStep(z, r)
				progs = append(progs, kernelProgram{"ilu0", sess, sys,
					func() { sys.SetGlobal(r, xh); z.FillHost(7) },
					func() []uint64 {
						return append(append(tensorBits(sys, z), f32Bits(p.fvals)...), f32Bits(p.fdiag)...)
					}})
			}
			{
				sess, sys := newSystem()
				p := &DILU{Sys: sys}
				z, r := sys.Vector("z"), sys.Vector("r")
				p.SetupStep()
				p.ApplyStep(z, r)
				progs = append(progs, kernelProgram{"dilu", sess, sys,
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
}
