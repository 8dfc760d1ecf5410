package graph_test

import (
	"testing"

	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
	"ipusparse/internal/twofloat"
)

// kernelStep wraps a descriptor into a non-empty compute set.
func kernelStep(name string, k *graph.NativeKernel) graph.Compute {
	cs := graph.NewComputeSet(name, "Test")
	cs.Add(0, graph.CodeletFunc(func() uint64 { return 1 }))
	cs.NativeKernel = k
	return graph.Compute{Set: cs}
}

// scaleInto describes dst = c*src over one block.
func scaleInto(dst, src *graph.Buffer, c float64) *graph.NativeKernel {
	k := graph.AssignKernel([][]float32{dst.F32}, []graph.Term{{Coeff: c, Vec: [][]float32{src.F32}}})
	k.Reads, k.Writes = []*graph.Buffer{src}, []*graph.Buffer{dst}
	return k
}

// TestFuseStopsAtControlFlow pins the pass's borders: a reduction partial may
// cross an opaque kernel that leaves its operand alone, but never a branch —
// hoisting r·r above an If whose body rewrites r would read the stale r
// whenever the branch is taken — and never a host callback.
func TestFuseStopsAtControlFlow(t *testing.T) {
	a, r, other := graph.NewBuffer(ipu.F32, 3), graph.NewBuffer(ipu.F32, 3), graph.NewBuffer(ipu.F32, 1)
	copy(a.F32, []float32{1, 2, 3})
	sink := &graph.PartialSink{DW: make([]twofloat.DW, 1), F64: make([]float64, 1)}
	dot := func() *graph.NativeKernel {
		k := graph.ReducePartialKernel([][]float32{r.F32}, [][]float32{r.F32}, []int{0}, sink)
		k.Reads = []*graph.Buffer{r}
		return k
	}
	bystander := func() graph.Step {
		return kernelStep("bystander", graph.OpaqueKernel(func() { other.F32[0]++ }, nil, []*graph.Buffer{other}))
	}

	for _, tc := range []struct {
		name   string
		middle func(taken *bool) graph.Step
		hoists int
	}{
		{"opaque kernel", func(*bool) graph.Step { return bystander() }, 1},
		{"host callback", func(*bool) graph.Step {
			return graph.HostCall{Name: "cb", Fn: func() error { return nil }}
		}, 0},
		{"branch", func(taken *bool) graph.Step {
			then := &graph.Sequence{}
			then.Append(kernelStep("r=3a", scaleInto(r, a, 3)))
			return graph.If{Cond: func() bool { return *taken }, Then: then}
		}, 0},
	} {
		taken := false
		prog := &graph.Sequence{}
		prog.Append(kernelStep("r=2a", scaleInto(r, a, 2)))
		prog.Append(tc.middle(&taken))
		prog.Append(bystander()) // the dot never sits right behind the border already
		prog.Append(kernelStep("r.r", dot()))
		graph.Freeze(prog)
		exec, err := graph.Lower(prog, testMachine(t).NumTiles())
		if err != nil {
			t.Fatal(err)
		}
		if got := exec.Fusion().Hoists; got != tc.hoists {
			t.Errorf("%s between producer and partial: %d hoists, want %d", tc.name, got, tc.hoists)
		}
		for _, taken = range []bool{false, true} {
			want := 4.0 * 14
			if taken && tc.name == "branch" {
				want = 9.0 * 14
			}
			sink.F64[0] = -1
			if _, err := exec.Run(nil); err != nil {
				t.Fatal(err)
			}
			if sink.F64[0] != want {
				t.Errorf("%s, taken=%v: fused stream left r·r = %v, want %v", tc.name, taken, sink.F64[0], want)
			}
		}
	}
}
