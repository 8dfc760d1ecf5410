// Package backend is how a frozen graph program executes. A program runs
// on one executor: the instruction stream package graph lowers it to, walked
// by one program-counter loop (graph.Stream). The two backends differ only in
// the accounting layered over that loop:
//
//   - Sim runs the stream with the cycle-accurate BSP engine as its
//     accounting: every compute superstep and exchange phase billed through
//     the machine's cost model, device tracing available. This is the
//     research and validation backend and stays the CLI/bench default.
//   - Native runs the stream with no accounting: host-speed kernels where
//     the compute sets describe them, serial codelets elsewhere (counted in
//     RunResult.CodeletSets), halo exchanges as direct slice copies. Fault-free
//     runs execute a fused stream derived from the lowered one, which folds
//     dots and vector updates into the sweep that produces their operands
//     (counted in RunResult.FusedSets), bit-identically. Zero per-iteration
//     allocation; this is the serving default.
//
// Both backends consult a fault injector at the same points in the same
// order, because the loop does, so a seeded campaign replays identically on
// either. The cross-backend contract is residual identity (a native answer
// converges to the same tolerance on the same system), not bit identity:
// fused and billed kernels may associate float roundings differently from
// the codelets.
package backend

import (
	"errors"
	"fmt"

	"ipusparse/internal/config"
	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
)

// Backend compiles frozen programs into reusable executables.
type Backend interface {
	// Name is the stable identifier ("sim", "native") used by config keys,
	// Info() and telemetry.
	Name() string
	// Compile lowers a frozen program for machine m into an executable
	// artifact. rep is the program's analysis report (pre-sizing hints).
	Compile(prog *graph.Sequence, m *ipu.Machine, rep graph.Report) (Executable, error)
	// SupportsTrace reports whether Run can record a device timeline.
	SupportsTrace() bool
}

// RunConfig carries the per-run knobs of an Executable.
type RunConfig struct {
	// Parallelism is the engine's host-shard count for interpreted compute
	// sets (Sim only; 0 = all cores).
	Parallelism int
	// Injector, when non-nil, drives a fault campaign. The executor consults
	// it at the same program points on either backend.
	Injector graph.Injector
	// Metrics, when non-nil, receives the engine's telemetry (Sim only).
	Metrics *graph.EngineMetrics
	// Trace requests a device timeline; the result carries the Tracer (Sim
	// only).
	Trace bool
	// CollectProfile requests the per-label cycle profile (Sim only; the lean
	// re-solve path leaves it off to stay allocation-free).
	CollectProfile bool
}

// RunResult is the executor's count of one run plus, on Sim, the engine's
// accounting.
type RunResult struct {
	graph.RunStats
	Profile []graph.ProfileEntry // nil unless CollectProfile on Sim
	Tracer  *graph.Tracer        // non-nil when Trace was requested on Sim
}

// Executable is a compiled program bound to one machine's buffers. It runs
// against those buffers by reference, so an in-place rewrite of the solver's
// tile value blocks is visible to the next Run with no recompile. Run is not
// safe for concurrent use: callers serialize (core.Prepared holds a mutex).
type Executable interface {
	Run(cfg RunConfig) (RunResult, error)
}

// Sim is the cycle-accurate simulator backend.
var Sim Backend = simBackend{}

// Native is the host-native flat-kernel backend.
var Native Backend = nativeBackend{}

// DefaultName is the backend used when nothing is configured: the simulator,
// keeping research workflows (ipusolve, bench) cycle-accurate by default.
const DefaultName = "sim"

// ByName resolves a backend identifier from config/flags. The empty string
// selects the default (simulator).
func ByName(name string) (Backend, error) {
	switch name {
	case "", "sim", "simulator":
		return Sim, nil
	case "native":
		return Native, nil
	}
	return nil, fmt.Errorf("backend: unknown backend %q (want sim or native)", name)
}

// UnsupportedError is the typed rejection of a feature a backend cannot
// honor exactly (device tracing on the native path).
type UnsupportedError struct {
	Backend string
	Feature string
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("backend %s: %s is not supported (use the simulator backend)", e.Backend, e.Feature)
}

// IsUnsupported reports whether err carries an UnsupportedError.
func IsUnsupported(err error) bool {
	var ue *UnsupportedError
	return errors.As(err, &ue)
}

// CheckConfig verifies that be can honor every simulator-only feature cfg
// requests, returning a typed *UnsupportedError for the first one it cannot.
// The serving layers call it at registration time — before the expensive
// warm-up prepare — so a capability mismatch is an HTTP 400 at registration,
// never a surprise on the first solve; core.Prepare applies the same check so
// direct users fail equally early.
func CheckConfig(be Backend, cfg *config.Config) error {
	if cfg == nil {
		return nil
	}
	if cfg.EngineTrace() != "" && !be.SupportsTrace() {
		return &UnsupportedError{Backend: be.Name(), Feature: "device tracing"}
	}
	return nil
}
