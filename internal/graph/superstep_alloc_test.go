package graph_test

import (
	"testing"

	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
	"ipusparse/internal/partition"
	"ipusparse/internal/solver"
	"ipusparse/internal/sparse"
	"ipusparse/internal/telemetry"
	"ipusparse/internal/tensordsl"
)

// TestEngineSuperstepZeroAlloc is the overhead guard of the simulated engine:
// once a first run has grown every buffer, re-running the lowered stream of a
// scheduled distributed SpMV (exchange + compute supersteps) must not allocate — serial, sharded
// across the host pool, and sharded with telemetry attached, whose
// instruments record through pre-resolved atomic handles.
func TestEngineSuperstepZeroAlloc(t *testing.T) {
	for _, arm := range []struct {
		name string
		par  int
		reg  *telemetry.Registry
	}{
		{"serial", 1, nil},
		{"parallel", 0, nil},
		{"telemetry", 0, telemetry.NewRegistry()},
	} {
		t.Run(arm.name, func(t *testing.T) {
			cfg := ipu.Mk2M2000()
			cfg.TilesPerChip, cfg.Chips = 64, 1
			mach, err := ipu.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const n = 12
			m := sparse.Poisson3D(n, n, n)
			sess := tensordsl.NewSession(mach)
			sys, err := solver.NewSystem(sess, m, partition.Grid3DAuto(m, n, n, n, mach.NumTiles()))
			if err != nil {
				t.Fatal(err)
			}
			x, y := sys.Vector("x"), sys.Vector("y")
			xh := make([]float64, m.N)
			for i := range xh {
				xh[i] = float64(i % 7)
			}
			if err := sys.SetGlobal(x, xh); err != nil {
				t.Fatal(err)
			}
			sys.SpMV(y, x)
			prog := sess.Program()
			graph.Freeze(prog)
			eng := graph.NewEngine(mach)
			eng.SetParallelism(arm.par)
			eng.Reserve(graph.Analyze(prog).MaxExchangeMoves)
			eng.SetMetrics(graph.NewEngineMetrics(arm.reg))
			s, err := graph.Lower(prog, mach.NumTiles())
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.RunStream(s); err != nil { // warm-up grows every buffer once
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := eng.RunStream(s); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("engine allocates %.1f objects per SpMV run, want 0", allocs)
			}
		})
	}
}
