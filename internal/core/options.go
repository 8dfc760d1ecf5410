package core

import (
	"io"

	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
	"ipusparse/internal/solver"
	"ipusparse/internal/telemetry"
)

// Option configures a Prepare or Solve call. Options passed to Prepare become
// the pipeline's defaults; options passed to (*Prepared).Solve override them
// for that call only.
type Option func(*runOptions)

type runOptions struct {
	trace      io.Writer
	par        int
	parSet     bool
	reg        *telemetry.Registry
	backend    string
	backendSet bool
	tuned      Tuned
	tunedSet   bool
}

// Tuned is an autotuned execution configuration: the knobs a measured race
// (internal/tune) decides per sparsity pattern. Zero-valued fields keep the
// caller's positional/config choice, so a partial decision composes with the
// registered configuration.
type Tuned struct {
	// Strategy overrides the positional partition strategy when non-empty.
	Strategy PartitionStrategy
	// Backend overrides the execution backend when non-empty. An explicit
	// WithBackend option still wins over it.
	Backend string
}

// WithTuned applies an autotuned execution configuration at Prepare: the
// decision's partition strategy and backend replace the positional/config
// defaults, while an explicit WithBackend option keeps precedence. Like the
// backend itself, WithTuned is a Prepare-time decision — the program is
// compiled for it.
func WithTuned(t Tuned) Option {
	return func(o *runOptions) { o.tuned, o.tunedSet = t, true }
}

// WithTrace exports the combined execution timeline — host pipeline phases
// plus the BSP device phases — to w in Chrome trace-event JSON (loadable in
// chrome://tracing or Perfetto, the PopVision role). A nil writer disables
// tracing.
func WithTrace(w io.Writer) Option {
	return func(o *runOptions) { o.trace = w }
}

// WithParallelism pins the engine host parallelism: 0 selects the shared
// pool's worker count (GOMAXPROCS), 1 runs serially. Results are bit-identical
// at every setting; parallelism only changes host wall time.
func WithParallelism(par int) Option {
	return func(o *runOptions) {
		if par < 0 {
			par = 0
		}
		o.par, o.parSet = par, true
	}
}

// WithBackend selects the execution backend by name: "sim" or "native"
// (config.ResolveBackend holds every spelling). Both run the program's one
// lowered stream. Sim attaches the cycle-accurate engine, which bills every
// superstep and supports device tracing; it is the CLI and bench default, so
// research runs stay cycle-accurate unless asked. Native runs the stream
// with no accounting, on host-speed and fused kernels with zero allocation
// per run; it is the serving default. The backend is a Prepare-time
// decision, so WithBackend is only accepted by Prepare; passing it to a Solve
// call returns an error. It takes precedence over the engine.backend config
// key.
func WithBackend(name string) Option {
	return func(o *runOptions) { o.backend, o.backendSet = name, true }
}

// WithTelemetry records pipeline, machine, engine and solver metrics into the
// registry: phase wall times, per-tile cycle and exchange-byte distributions,
// superstep and exchange counters, convergence outcomes. Recording is
// allocation-free on the superstep hot path and never changes results.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(o *runOptions) { o.reg = reg }
}

// coreInstruments is the pre-resolved instrument set for one registry: the
// pipeline's own phase metrics plus the machine, engine and solver sets.
// Resolved once (at Prepare, or on first per-call override), reused every run.
type coreInstruments struct {
	reg      *telemetry.Registry
	machine  *ipu.MachineMetrics
	engine   *graph.EngineMetrics
	solver   *solver.Metrics
	phases   *telemetry.HistogramVec
	solves   *telemetry.Counter
	backends *telemetry.GaugeVec

	refreshes       *telemetry.Counter
	refreshMismatch *telemetry.Counter
}

func newCoreInstruments(reg *telemetry.Registry) *coreInstruments {
	if reg == nil {
		return nil
	}
	return &coreInstruments{
		reg:     reg,
		machine: ipu.NewMachineMetrics(reg),
		engine:  graph.NewEngineMetrics(reg),
		solver:  solver.NewMetrics(reg),
		phases: reg.HistogramVec("core_phase_seconds",
			"Pipeline phase wall time by phase (partition, schedule, compile, execute, refresh).",
			telemetry.ExponentialBuckets(1e-5, 10, 8), "phase"),
		solves: reg.Counter("core_solves_total", "Completed solves through the core pipeline."),
		backends: reg.GaugeVec("core_backend",
			"Prepared pipelines per execution backend (sim, native).", "backend"),
		refreshes: reg.Counter("prepared_refresh_total",
			"Values-only refreshes adopted by prepared pipelines (UpdateValues)."),
		refreshMismatch: reg.Counter("refresh_pattern_mismatch_total",
			"Values-only refreshes rejected because the sparsity pattern differed."),
	}
}

// observeBackend counts one prepared pipeline on the named backend so
// operators can see what each replica runs.
func (ci *coreInstruments) observeBackend(name string) {
	if ci == nil {
		return
	}
	ci.backends.With(name).Add(1)
}

func (ci *coreInstruments) observePhase(phase string, seconds float64) {
	if ci == nil {
		return
	}
	ci.phases.With(phase).Observe(seconds)
}

// observeRefresh counts one adopted values-only refresh and its wall time.
func (ci *coreInstruments) observeRefresh(seconds float64) {
	if ci == nil {
		return
	}
	ci.refreshes.Inc()
	ci.phases.With("refresh").Observe(seconds)
}

// observeRefreshMismatch counts one refresh rejected on pattern mismatch.
func (ci *coreInstruments) observeRefreshMismatch() {
	if ci == nil {
		return
	}
	ci.refreshMismatch.Inc()
}
