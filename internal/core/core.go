// Package core is the framework facade — the public entry point the examples
// and CLI use. It wires the full pipeline of the paper's Figure 2: build a
// machine, partition and halo-reorder the matrix, upload it, construct the
// configured solver hierarchy (optionally wrapped in MPIR), symbolically
// execute the TensorDSL program, run it on the simulated IPU, and return the
// solution with convergence statistics and the cycle profile.
package core

import (
	"fmt"

	"ipusparse/internal/config"
	"ipusparse/internal/fault"
	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
	"ipusparse/internal/partition"
	"ipusparse/internal/solver"
	"ipusparse/internal/sparse"
	"ipusparse/internal/tensordsl"
)

// PartitionStrategy selects how matrix rows map to tiles.
type PartitionStrategy string

// Partitioning strategies.
const (
	PartitionContiguous PartitionStrategy = "contiguous"
	PartitionGreedy     PartitionStrategy = "greedy"
)

// Context owns a simulated machine and the TensorDSL session bound to it.
type Context struct {
	Machine *ipu.Machine
	Session *tensordsl.Session
}

// NewContext creates a context over a fresh machine.
func NewContext(cfg ipu.Config) (*Context, error) {
	m, err := ipu.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Context{Machine: m, Session: tensordsl.NewSession(m)}, nil
}

// LoadSystem partitions, reorders and uploads the matrix.
func (c *Context) LoadSystem(m *sparse.Matrix, strategy PartitionStrategy) (*solver.System, error) {
	var p *partition.Partition
	switch strategy {
	case PartitionGreedy:
		p = partition.GreedyGraph(m, c.Machine.NumTiles())
	case PartitionContiguous, "":
		p = partition.Contiguous(m, c.Machine.NumTiles())
	default:
		return nil, fmt.Errorf("core: unknown partition strategy %q", strategy)
	}
	return solver.NewSystem(c.Session, m, p)
}

// Result is the outcome of a solve.
type Result struct {
	X       []float64 // solution in original row numbering
	Stats   solver.RunStats
	Profile []graph.ProfileEntry
	Machine ipu.Stats
	Report  graph.Report // program analysis ("graph compilation report")

	// Faults is the chronological log of injected faults (nil without a
	// fault campaign); FaultRetries counts exchange payloads the fabric had
	// to redeliver.
	Faults       []fault.Event
	FaultRetries uint64

	// ExecWallSeconds is the host wall-clock time spent executing the
	// compiled program (the simulated device phase). The rest of a call's
	// wall time is pipeline overhead — partition, upload and scheduling on
	// the cold path, just state reset and dispatch on the warm path — which
	// is what Prepare amortizes across right-hand sides (bench Table VI).
	ExecWallSeconds float64
}

// Solve runs the full pipeline on a fresh context: partition m across the
// machine, build the solver described by cfg (with the MPIR outer loop when
// configured), execute, and return the solution. Options configure the run:
// WithTrace exports the execution timeline, WithParallelism pins the engine
// host parallelism, WithTelemetry records metrics into a registry. Solve is a
// thin wrapper over Prepare + (*Prepared).Solve; callers that solve many
// right-hand sides against one matrix should Prepare once and reuse the
// pipeline.
func Solve(machineCfg ipu.Config, m *sparse.Matrix, b []float64, cfg config.Config, strategy PartitionStrategy, opts ...Option) (*Result, error) {
	p, err := Prepare(machineCfg, m, cfg, strategy, opts...)
	if err != nil {
		return nil, err
	}
	return p.Solve(b)
}
