package solver_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ipusparse/internal/config"
	"ipusparse/internal/fault"
	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
	"ipusparse/internal/partition"
	"ipusparse/internal/solver"
	"ipusparse/internal/sparse"
	"ipusparse/internal/tensordsl"
)

// This file lives in the external test package because it drives whole solver
// programs through packages config and backend, which import package solver.

// fusionProfiles returns the distinct solver hierarchies of configs/ plus
// serve-cg's cg+jacobi, keyed by a readable name.
func fusionProfiles(t *testing.T) map[string]config.Config {
	t.Helper()
	out := map[string]config.Config{
		"cg-jacobi": {Solver: config.SolverConfig{
			Type: "cg", MaxIterations: 2000, Tolerance: 1e-6,
			Preconditioner: &config.SolverConfig{Type: "jacobi"},
		}},
	}
	files, err := filepath.Glob("../../configs/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no profiles under configs/: %v", err)
	}
	seen := map[string]bool{}
	for _, f := range files {
		r, err := os.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := config.Parse(r)
		r.Close()
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		// Several files differ in their serving sections only.
		hierarchy := fmt.Sprintf("%+v %+v %+v", cfg.Solver, cfg.MPIR, cfg.Recovery)
		if cfg.Solver.Preconditioner != nil {
			hierarchy += fmt.Sprintf(" %+v", *cfg.Solver.Preconditioner)
		}
		if !seen[hierarchy] {
			seen[hierarchy] = true
			out[filepath.Base(f)] = cfg
		}
	}
	return out
}

// scheduleProfile schedules cfg's hierarchy on sys the way core.Prepare does
// and returns the solution and right-hand-side tensors.
func scheduleProfile(t *testing.T, sys *solver.System, cfg config.Config, st *solver.RunStats) (x, b *tensordsl.Tensor) {
	t.Helper()
	rec, err := config.BuildRecovery(sys, cfg.Recovery)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MPIR == nil {
		s, err := config.BuildSolver(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		solver.WithRecovery(s, rec)
		x, b = sys.Vector("x"), sys.Vector("b")
		s.ScheduleSolve(x, b, st)
		return x, b
	}
	ext := cfg.MPIR.ExtScalar()
	x, b = sys.VectorTyped("x", ext), sys.VectorTyped("b", ext)
	pre, err := config.BuildPreconditioner(sys, cfg.Solver.Preconditioner)
	if err != nil {
		t.Fatal(err)
	}
	pre.SetupStep()
	mp := &solver.MPIR{
		Sys: sys, ExtType: ext,
		MakeInner: func(maxIter int) (solver.Solver, *float64) {
			var is solver.Solver = &solver.PBiCGStab{Sys: sys, Pre: pre, MaxIter: maxIter, Tol: 1e-30}
			if cfg.Solver.Type == "cg" {
				is = &solver.CG{Sys: sys, Pre: pre, MaxIter: maxIter, Tol: 1e-30}
			}
			solver.WithRecovery(is, rec)
			return is, nil
		},
		InnerIters: cfg.MPIR.InnerIterations, MaxOuter: cfg.MPIR.MaxOuter, Tol: cfg.MPIR.Tolerance,
	}
	mp.ScheduleSolve(x, b, st)
	return x, b
}

// deviceState is every place a native program keeps numbers: the registered
// tile buffers, the buffers and reduction partials its kernel descriptors
// name (replicated scalars are reachable only through those).
type deviceState struct {
	bufs  []*graph.Buffer
	sinks []*graph.PartialSink
}

func (d *deviceState) RegisterBuffer(_ int, _ string, buf *graph.Buffer) {
	d.bufs = append(d.bufs, buf)
}

func (d *deviceState) addKernels(s graph.Step) {
	switch st := s.(type) {
	case *graph.Sequence:
		for _, sub := range st.Steps {
			d.addKernels(sub)
		}
	case graph.Compute:
		if k := st.Set.NativeKernel; k != nil {
			d.bufs = append(append(d.bufs, k.Reads...), k.Writes...)
			if k.Sink != nil {
				d.sinks = append(d.sinks, k.Sink)
			}
		}
	case graph.Repeat:
		d.addKernels(st.Body)
	case graph.While:
		d.addKernels(st.Body)
	case graph.If:
		for _, br := range []*graph.Sequence{st.Then, st.Else} {
			if br != nil {
				d.addKernels(br)
			}
		}
	}
}

// dedupe keeps each buffer and sink once, in first-seen order.
func (d *deviceState) dedupe() {
	seenB, bufs := map[*graph.Buffer]bool{}, d.bufs[:0]
	for _, b := range d.bufs {
		if !seenB[b] {
			seenB[b] = true
			bufs = append(bufs, b)
		}
	}
	seenS, sinks := map[*graph.PartialSink]bool{}, d.sinks[:0]
	for _, s := range d.sinks {
		if !seenS[s] {
			seenS[s] = true
			sinks = append(sinks, s)
		}
	}
	d.bufs, d.sinks = bufs, sinks
}

// bits flattens the state into raw bit patterns.
func (d *deviceState) bits() []uint64 {
	var out []uint64
	for _, b := range d.bufs {
		for _, part := range [][]float32{b.F32, b.Hi, b.Lo} {
			for _, v := range part {
				out = append(out, uint64(math.Float32bits(v)))
			}
		}
		for _, v := range b.F64 {
			out = append(out, math.Float64bits(v))
		}
	}
	for _, s := range d.sinks {
		for i := range s.DW {
			out = append(out, uint64(math.Float32bits(s.DW[i].Hi)), uint64(math.Float32bits(s.DW[i].Lo)),
				math.Float64bits(s.F64[i]))
		}
	}
	return out
}

// restore writes a bits() snapshot back.
func (d *deviceState) restore(snap []uint64) {
	at := 0
	for _, b := range d.bufs {
		for _, part := range [][]float32{b.F32, b.Hi, b.Lo} {
			for i := range part {
				part[i] = math.Float32frombits(uint32(snap[at]))
				at++
			}
		}
		for i := range b.F64 {
			b.F64[i] = math.Float64frombits(snap[at])
			at++
		}
	}
	for _, s := range d.sinks {
		for i := range s.DW {
			s.DW[i].Hi = math.Float32frombits(uint32(snap[at]))
			s.DW[i].Lo = math.Float32frombits(uint32(snap[at+1]))
			s.F64[i] = math.Float64frombits(snap[at+2])
			at += 3
		}
	}
}

// TestFusedStreamMatchesPlain is the fusion property: on generated systems
// (ragged rows, an empty row, an empty tile, 1 to 64 tiles, both
// partitioners), for every solver hierarchy of configs/, with finite and with
// NaN/±Inf right-hand sides, before and after a values-only refresh, the
// fused stream of the compiled program leaves exactly the bits its lowered
// stream leaves — every tensor, every reduction partial, every scalar — with
// the same outcome. The generator must also have exercised every fusion the
// pass knows: at least one hoist and one group of each fused signature.
func TestFusedStreamMatchesPlain(t *testing.T) {
	profiles := fusionProfiles(t)
	names := make([]string, 0, len(profiles))
	for name := range profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	layouts := []struct {
		tiles  int
		greedy bool
	}{{1, false}, {3, true}, {5, false}, {5, true}, {64, false}, {64, true}}
	if testing.Short() {
		layouts = layouts[1:3]
	}

	hoists, groups, sawRun := 0, map[string]int{}, map[int32]bool{}
	for _, name := range names {
		cfg := profiles[name]
		for _, lay := range layouts {
			const n = 97
			m := solver.RaggedSystem(n, int64(lay.tiles), 1)
			part := partition.Contiguous(m, lay.tiles)
			if lay.greedy {
				part = partition.GreedyGraph(m, lay.tiles)
			}
			mc := ipu.DefaultConfig()
			mc.TilesPerChip = lay.tiles
			mach, err := ipu.New(mc)
			if err != nil {
				t.Fatal(err)
			}
			state := &deviceState{}
			sess := tensordsl.NewSession(mach)
			sess.Registry = state
			sys, err := solver.NewSystem(sess, m, part)
			if err != nil {
				t.Fatal(err)
			}
			var st solver.RunStats
			x, b := scheduleProfile(t, sys, cfg, &st)
			prog := sess.Program()
			graph.Freeze(prog)
			for _, k := range solver.SpMVKernels(prog) {
				for _, b := range k.CSR {
					for _, r := range b.Runs {
						sawRun[r.Count] = true
					}
				}
			}
			state.addKernels(prog)
			state.dedupe()
			exec, err := graph.Lower(prog, mach.NumTiles())
			if err != nil {
				t.Fatal(err)
			}
			rep := exec.Fusion()
			hoists += rep.Hoists
			for sig, c := range rep.Groups {
				groups[sig] += c
			}

			finite, poisoned := solver.RandVec(n, 8), solver.RandVec(n, 8)
			poisoned[n/5], poisoned[n/2], poisoned[n-2] = math.NaN(), math.Inf(1), math.Inf(-1)
			for _, tc := range []struct {
				label   string
				rhs     []float64
				refresh *sparse.Matrix
			}{
				{"finite", finite, nil},
				{"nan-inf", poisoned, nil},
				{"refreshed", finite, solver.RaggedSystem(n, int64(lay.tiles), 2)},
			} {
				where := fmt.Sprintf("%s tiles=%d greedy=%v %s", name, lay.tiles, lay.greedy, tc.label)
				if tc.refresh != nil {
					if err := sys.RefreshValues(tc.refresh); err != nil {
						t.Fatal(err)
					}
				}
				if err := sys.SetGlobal(b, tc.rhs); err != nil {
					t.Fatal(err)
				}
				if err := sys.SetGlobal(x, make([]float64, n)); err != nil {
					t.Fatal(err)
				}
				start := state.bits()

				// An armed injector, even one that never fires (rate 0), makes the
				// native backend execute the lowered, unfused stream: the oracle.
				plain, perr := exec.Run(fault.New(fault.Plan{}))
				want, wantSt := state.bits(), st
				state.restore(start)
				fused, ferr := exec.Run(nil)
				got := state.bits()

				if fmt.Sprint(perr) != fmt.Sprint(ferr) {
					t.Fatalf("%s: plain stream ended with %v, fused with %v", where, perr, ferr)
				}
				if plain.FusedSets != 0 || plain.Supersteps != fused.Supersteps {
					t.Fatalf("%s: plain stream ran %d fused sets in %d supersteps, fused stream %d supersteps",
						where, plain.FusedSets, plain.Supersteps, fused.Supersteps)
				}
				if st.Iterations != wantSt.Iterations || math.Float64bits(st.RelRes) != math.Float64bits(wantSt.RelRes) ||
					st.Converged != wantSt.Converged {
					t.Fatalf("%s: fused stream reports %d iterations, relRes %v, converged %v; plain %d, %v, %v",
						where, st.Iterations, st.RelRes, st.Converged, wantSt.Iterations, wantSt.RelRes, wantSt.Converged)
				}
				if len(got) != len(want) || len(want) == 0 {
					t.Fatalf("%s: %d state words, plain stream left %d", where, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: state word %d of %d is %#x after the fused stream, %#x after the plain one",
							where, i, len(want), got[i], want[i])
					}
				}
			}
		}
	}
	if hoists == 0 {
		t.Error("no profile hoisted a reduction partial")
	}
	solver.CheckRowBodies(t, sawRun)
	for _, sig := range graph.FusedSignatures() {
		if groups[sig] == 0 {
			t.Errorf("no profile produced a %q group", sig)
		}
	}
	t.Logf("%d hoists, groups %v", hoists, groups)
}
