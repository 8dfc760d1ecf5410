// Package backend abstracts how a frozen graph program executes. Two
// implementations exist:
//
//   - Sim wraps the cycle-accurate BSP engine (package graph) bit-identically
//     — every superstep billed through the machine's cost model, fault
//     injection and device tracing available. This is the research and
//     validation backend and stays the CLI/bench default.
//   - Native lowers the compiled superstep schedule once, at prepare time,
//     into a preallocated flat instruction stream: host-speed kernels where
//     the compute sets describe them (SpMV and extended residuals,
//     ILU(0)/DILU factor and sweeps, fused assigns, dot/norm partials),
//     serial codelet execution elsewhere (counted in
//     RunResult.CodeletSets), halo exchanges as direct slice copies, and no
//     cycle or exchange accounting at all. Zero per-iteration allocation;
//     this is the serving default. The lowered stream keeps every injector
//     consultation point the engine has (accounting-only moves and nil host
//     callbacks included), so seeded fault campaigns replay identically to
//     the simulator. Fault-free runs execute a second stream derived from it
//     by one peephole pass that folds dots and vector updates into the sweep
//     that produces their operands (counted in RunResult.FusedSets),
//     bit-identically. Only device tracing stays sim-only.
//
// Both backends run the *same* compiled program against the same device
// buffers, so every host callback, While condition and solver statistic works
// unchanged. The cross-backend contract is residual identity — a native
// answer converges to the same tolerance on the same system — not bit
// identity: fused kernels may associate float roundings differently.
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
	// SupportsFaults reports whether Run accepts a fault injector. Both
	// backends consult the injector at the same program points in the same
	// order, so a seeded campaign replays identically on either.
	SupportsFaults() bool
	// SupportsTrace reports whether Run can record a device timeline.
	SupportsTrace() bool
}

// RunConfig carries the per-run knobs of an Executable.
type RunConfig struct {
	// Parallelism is the host-shard count (simulator only; 0 = all cores).
	Parallelism int
	// Injector, when non-nil, drives a fault campaign. Both backends consult
	// it at identical program points in identical order, so seeded campaigns
	// replay exactly across backends.
	Injector graph.Injector
	// Metrics, when non-nil, receives engine telemetry (simulator only).
	Metrics *graph.EngineMetrics
	// Trace requests a device timeline; the result carries the Tracer.
	Trace bool
	// CollectProfile requests the per-label cycle profile (simulator only;
	// the lean re-solve path leaves it off to stay allocation-free).
	CollectProfile bool
}

// RunResult is the executable's accounting of one run.
type RunResult struct {
	Profile      []graph.ProfileEntry // nil unless CollectProfile on a backend with a cost model
	Supersteps   uint64
	FaultRetries uint64
	// CodeletSets counts the compute sets the native backend ran codelet by
	// codelet because they carry no native kernel (0 on the simulator, where
	// codelets are the execution model). A count that grows with the
	// iteration count means a kernel inside a solver loop fell back.
	CodeletSets uint64
	// FusedSets counts the compute sets the native backend executed inside a
	// fused kernel (0 on the simulator and on fault-armed native runs, which
	// execute the unfused stream). A count that stops growing with the
	// iteration count means a solver loop lost its fusions.
	FusedSets uint64
	Tracer    *graph.Tracer // non-nil when Trace was requested and supported
}

// Executable is a compiled program bound to one machine's buffers. Run is not
// safe for concurrent use — callers serialize (core.Prepared holds a mutex).
type Executable interface {
	Run(cfg RunConfig) (RunResult, error)

	// Refresh adopts a values-only update of the numeric payloads the
	// executable was lowered from, without recompiling the program. rewrite
	// performs the in-place overwrite of the host-side source arrays (tile
	// value blocks, snapshot tensors, checksums); the executable brackets it
	// with whatever re-lowering its own storage needs. Both current backends
	// execute against those arrays by reference — the simulator's codelets
	// and the native backend's preallocated flat kernels capture the same
	// slice headers at compile time — so adopting the rewrite is exactly the
	// pass-through that keeps the two bit-identical by construction, and the
	// native path allocation-free. A backend holding device-private copies
	// (a real accelerator would) re-uploads here instead. Not safe for
	// concurrent use with Run.
	Refresh(rewrite func() error) error
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
	if cfg.Fault != nil && cfg.Fault.Rate > 0 && !be.SupportsFaults() {
		return &UnsupportedError{Backend: be.Name(), Feature: "fault injection"}
	}
	if cfg.EngineTrace() != "" && !be.SupportsTrace() {
		return &UnsupportedError{Backend: be.Name(), Feature: "device tracing"}
	}
	return nil
}
