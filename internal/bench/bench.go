// Package bench regenerates every table and figure of the paper's evaluation
// (§VI) on the simulated IPU, with CPU/GPU sides supplied by the float64
// reference solvers (iteration counts) and the platform roofline models
// (per-iteration times). Each experiment has a structured result type (used
// by the test suite to assert the paper's qualitative shapes) and a printer
// producing the rows/series the paper reports.
//
// Paper-scale inputs are large (up to 890M nonzeros); the default Options
// shrink every workload by a documented factor so the whole suite runs on a
// laptop in minutes. All models are size-linear, so the reported shapes are
// scale-invariant; pass Scale=1 and FullMachine=true to reproduce paper-scale
// numbers.
package bench

import (
	"fmt"
	"io"
	"math/rand"

	"ipusparse/internal/ipu"
	"ipusparse/internal/partition"
	"ipusparse/internal/solver"
	"ipusparse/internal/sparse"
	"ipusparse/internal/tensordsl"
)

// Options configures the harness.
type Options struct {
	// Scale divides every paper-scale workload (default 64).
	Scale int
	// Tiles is the simulated tile count per chip for single-chip experiments
	// (default 64; the paper machine has 1472).
	Tiles int
	// FullMachine uses the Mk2 M2000 tile counts (overrides Tiles).
	FullMachine bool
	// Out receives the printed tables (default: discarded if nil at print
	// time callers pass os.Stdout).
	Out io.Writer
	// Seed for synthetic right-hand sides.
	Seed int64
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 64
	}
	if o.Tiles <= 0 {
		o.Tiles = 64
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

func (o Options) machineConfig(chips int) ipu.Config {
	cfg := ipu.Mk2M2000()
	cfg.Chips = chips
	if !o.FullMachine {
		cfg.TilesPerChip = o.Tiles
	}
	return cfg
}

func (o Options) printf(format string, args ...interface{}) {
	if o.Out != nil {
		fmt.Fprintf(o.Out, format, args...)
	}
}

// newSystem builds a machine + session + system for a matrix using grid-aware
// partitioning when dims are provided (nx*ny*nz == m.N), else contiguous.
func newSystem(cfg ipu.Config, m *sparse.Matrix, nx, ny, nz int) (*tensordsl.Session, *solver.System, error) {
	mach, err := ipu.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	sess := tensordsl.NewSession(mach)
	var p *partition.Partition
	if nx*ny*nz == m.N {
		p = partition.Grid3DAuto(m, nx, ny, nz, mach.NumTiles())
	} else {
		p = partition.Contiguous(m, mach.NumTiles())
	}
	sys, err := solver.NewSystem(sess, m, p)
	if err != nil {
		return nil, nil, err
	}
	return sess, sys, nil
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// rhsForSolution returns b = A*x* for a smooth planted solution, the standard
// verification right-hand side.
func rhsForSolution(m *sparse.Matrix) []float64 {
	x := make([]float64, m.N)
	for i := range x {
		x[i] = 1 + 0.5*float64(i%17)/17
	}
	b := make([]float64, m.N)
	m.MulVec(x, b)
	return b
}
