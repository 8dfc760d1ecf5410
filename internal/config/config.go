// Package config implements the JSON solver configuration of the paper (§V):
// "The solver hierarchy and associated parameters are easily configured
// through a JSON file", including nested configurations where any solver
// serves as another's preconditioner.
//
// Example:
//
//	{
//	  "solver": {
//	    "type": "pbicgstab",
//	    "maxIterations": 1000,
//	    "tolerance": 1e-9,
//	    "preconditioner": { "type": "ilu0" }
//	  },
//	  "mpir": { "extended": "dw", "innerIterations": 100,
//	            "maxOuter": 50, "tolerance": 1e-13 }
//	}
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"ipusparse/internal/fault"
	"ipusparse/internal/ipu"
	"ipusparse/internal/solver"
)

// SolverConfig describes one solver or preconditioner node of the hierarchy.
type SolverConfig struct {
	Type string `json:"type"` // pbicgstab, cg, gaussseidel, richardson, jacobi, ilu0, dilu, none

	// MaxIterations and Tolerance bound the top-level solve. Under an mpir
	// config the solve reads neither: each correction solve stops at the
	// reduction the outer loop still needs, never below solver.CorrectionTol,
	// capped at mpir.innerIterations, and mpir.tolerance is the solve's
	// tolerance.
	MaxIterations int     `json:"maxIterations,omitempty"`
	Tolerance     float64 `json:"tolerance,omitempty"`

	// ABFT arms algorithm-based fault tolerance on the solve (top-level node
	// only): checksum-carrying SpMV, dot/norm divergence guards and a final
	// residual verification of converged answers. Detections recover through
	// the recovery policy or surface as typed breakdowns.
	ABFT bool `json:"abft,omitempty"`

	// Gauss-Seidel options.
	Sweeps    int  `json:"sweeps,omitempty"`
	Symmetric bool `json:"symmetric,omitempty"`

	// Degree of the Chebyshev polynomial preconditioner.
	Degree int `json:"degree,omitempty"`

	// Iterations applies when this node is a nested solver used as a
	// preconditioner (fixed iteration count, zero initial guess).
	Iterations int `json:"iterations,omitempty"`

	// Coarse wraps this preconditioner node with the two-level coarse-grid
	// correction (one aggregate per tile), compensating the halo couplings
	// that tile-local preconditioners drop.
	Coarse bool `json:"coarse,omitempty"`

	Preconditioner *SolverConfig `json:"preconditioner,omitempty"`
}

// MPIRConfig enables the Mixed-Precision Iterative Refinement outer loop.
type MPIRConfig struct {
	// Extended selects the extended-precision type: "dw" (double-word),
	// "dp" (soft double), or "none" (plain working-precision IR).
	Extended        string  `json:"extended"`
	InnerIterations int     `json:"innerIterations"`
	MaxOuter        int     `json:"maxOuter"`
	Tolerance       float64 `json:"tolerance"`
}

// FaultConfig enables a deterministic fault-injection campaign against the
// solve. A zero Rate (or a nil FaultConfig) injects nothing.
type FaultConfig struct {
	// Seed seeds the campaign's decision stream; the same seed reproduces the
	// same fault sequence against the same program.
	Seed int64 `json:"seed"`
	// Rate is the per-consultation fault probability.
	Rate float64 `json:"rate"`
	// Kinds restricts injection to the named fault classes (bit-flip,
	// exchange-corrupt, exchange-drop, tile-stall, host-transient); empty
	// enables all of them.
	Kinds []string `json:"kinds,omitempty"`
	// MaxFaults caps the campaign (0 = unlimited).
	MaxFaults int `json:"maxFaults,omitempty"`
	// StallCycles, RetryBudget and HostRetries override the fault package
	// defaults when positive.
	StallCycles int `json:"stallCycles,omitempty"`
	RetryBudget int `json:"retryBudget,omitempty"`
	HostRetries int `json:"hostRetries,omitempty"`
}

// RecoveryConfig enables the checkpoint/restart resilience layer on solvers
// that support it (pbicgstab, cg, richardson — including MPIR inner solvers).
type RecoveryConfig struct {
	// Interval is the checkpoint/shadow-verification period in iterations
	// (0 uses the solver default of 10).
	Interval int `json:"interval,omitempty"`
	// MaxRestarts is the restart budget (0 uses the solver default of 3).
	MaxRestarts int `json:"maxRestarts,omitempty"`
	// Fallback, when set, is the solver escalated to once the restart budget
	// is spent.
	Fallback *SolverConfig `json:"fallback,omitempty"`
}

// ChaosConfig enables a deterministic service-level chaos campaign against
// the solve service: replica crashes, slow replicas, breakdown storms and
// transient host errors, drawn from one seeded decision stream. A zero Rate
// (or a nil ChaosConfig) injects nothing.
type ChaosConfig struct {
	// Seed seeds the campaign's decision stream.
	Seed int64 `json:"seed"`
	// Rate is the per-solve-attempt fault probability.
	Rate float64 `json:"rate"`
	// Kinds restricts injection to the named classes (replica-crash,
	// replica-stall, breakdown, host-error); empty enables all of them.
	Kinds []string `json:"kinds,omitempty"`
	// MaxEvents caps the campaign (0 = unlimited).
	MaxEvents int `json:"maxEvents,omitempty"`
	// StallMs is the injected slow-replica delay in milliseconds (0 uses the
	// fault package default of 50ms).
	StallMs int `json:"stallMs,omitempty"`
}

// Plan converts the chaos section into a campaign plan for fault.NewChaos.
// The kinds have been validated.
func (cc *ChaosConfig) Plan() fault.ChaosPlan {
	p := fault.ChaosPlan{
		Seed:          cc.Seed,
		Rate:          cc.Rate,
		MaxEvents:     cc.MaxEvents,
		StallDuration: time.Duration(cc.StallMs) * time.Millisecond,
	}
	for _, name := range cc.Kinds {
		if k, err := fault.ParseChaosKind(name); err == nil {
			p.Kinds = append(p.Kinds, k)
		}
	}
	return p
}

// ServeConfig is the solver-service block: the prepared-pipeline cache, the
// admission-controlled job queue, the worker pool and the resilience layer
// (retry, hedging, circuit breaking, residual verification, crash-safe
// registry) of ipuserved. Zero values select the serve package defaults.
type ServeConfig struct {
	// Addr is the HTTP listen address of ipuserved (default ":8723").
	Addr string `json:"addr,omitempty"`
	// CacheCapacity bounds the prepared-pipeline LRU cache (entries).
	CacheCapacity int `json:"cacheCapacity,omitempty"`
	// ReplicasPerKey is the number of Prepared replicas kept per hot key so
	// independent solves of one system run concurrently.
	ReplicasPerKey int `json:"replicasPerKey,omitempty"`
	// QueueDepth bounds the job queue; a full queue rejects with
	// ErrOverloaded (admission control).
	QueueDepth int `json:"queueDepth,omitempty"`
	// Workers is the solve worker-pool size.
	Workers int `json:"workers,omitempty"`
	// DefaultTimeoutMs is the per-job deadline applied when a request does
	// not carry its own.
	DefaultTimeoutMs int `json:"defaultTimeoutMs,omitempty"`
	// Tiles/Chips describe the default simulated machine for registered
	// systems that do not request their own.
	Tiles int `json:"tiles,omitempty"`
	Chips int `json:"chips,omitempty"`
	// Partition is the default partition strategy ("contiguous" or "greedy").
	Partition string `json:"partition,omitempty"`

	// MaxBodyBytes bounds HTTP request bodies; oversized requests are
	// rejected with 413 (default 8 MiB).
	MaxBodyBytes int64 `json:"maxBodyBytes,omitempty"`
	// VerifyTolerance is the host-side residual-verification threshold: a
	// solve reported converged whose true relative residual exceeds it is
	// treated as corrupted and retried, never served (default 1e-4, widened
	// per system to 100x its configured solve tolerance when that is looser).
	VerifyTolerance float64 `json:"verifyTolerance,omitempty"`
	// RetryMax is the number of additional solve attempts after a retryable
	// failure (default 2; -1 disables retries).
	RetryMax int `json:"retryMax,omitempty"`
	// RetryBaseMs is the first retry backoff in milliseconds; each further
	// attempt doubles it, with jitter (default 5ms).
	RetryBaseMs int `json:"retryBaseMs,omitempty"`
	// HedgeAfterMs enables hedged solves: if an attempt has not finished
	// after max(this floor, the observed p99 latency), a second replica fires
	// and the first result wins (0 disables hedging).
	HedgeAfterMs int `json:"hedgeAfterMs,omitempty"`
	// BreakerThreshold is the consecutive-failure count that opens a
	// system's circuit breaker (default 5; -1 disables breaking).
	BreakerThreshold int `json:"breakerThreshold,omitempty"`
	// BreakerCooldownMs is how long an open breaker sheds load before
	// admitting a half-open probe (default 1000ms).
	BreakerCooldownMs int `json:"breakerCooldownMs,omitempty"`
	// StateDir enables the crash-safe registry: registrations are logged to
	// an append-only WAL (plus snapshot) under this directory and replayed
	// on startup, so a restarted server re-prepares its systems.
	StateDir string `json:"stateDir,omitempty"`
	// Chaos enables a deterministic service-level chaos campaign.
	Chaos *ChaosConfig `json:"chaos,omitempty"`
	// Refresh tunes the values-only refresh path (PATCH /v1/systems/{id} and
	// pattern-matching registrations adopting cached pipelines).
	Refresh *RefreshConfig `json:"refresh,omitempty"`
	// Tune enables and bounds the registration-time autotuner.
	Tune *TuneConfig `json:"tune,omitempty"`
}

// RefreshConfig is the values-only refresh block of the serve tier: when a
// registered system's matrix changes numerically but keeps its sparsity
// pattern, prepared pipelines are refreshed in place (per-tile values,
// preconditioner refactorization, ABFT checksums) instead of cold-prepared.
type RefreshConfig struct {
	// Enabled turns the refresh path on (the default when the block is
	// present without it, and when the block is absent). When explicitly
	// false, pattern-matching registrations cold-prepare and
	// PATCH /v1/systems/{id} is rejected.
	Enabled *bool `json:"enabled,omitempty"`
	// WarmReplicas bounds how many idle cached replicas one adoption
	// refreshes in place; any remainder is dropped and re-prepared on
	// demand. 0 refreshes every idle replica.
	WarmReplicas int `json:"warmReplicas,omitempty"`
}

// TuneConfig is the autotuner block of the serve tier: newly registered
// patterns race the registered configuration against native challengers
// (each partition strategy, and for a plain preconditioned solve a swap
// between jacobi and ilu0; see tune.Candidates) under a bounded budget and
// serve with the measured winner; decisions persist in the registry WAL and
// ride cluster migration records.
type TuneConfig struct {
	// Enabled turns registration-time races on.
	Enabled bool `json:"enabled,omitempty"`
	// BudgetMs bounds one race (default 2000ms).
	BudgetMs int `json:"budgetMs,omitempty"`
	// Solves is the warm solve count per raced candidate (default 3).
	Solves int `json:"solves,omitempty"`
	// RetuneThreshold re-races a system in the background when its recent p99
	// latency exceeds threshold × the decision's winner latency (default 3.0;
	// negative disables background re-tuning).
	RetuneThreshold float64 `json:"retuneThreshold,omitempty"`
	// RetuneIntervalMs is the regression-scan period (default 5000ms).
	RetuneIntervalMs int `json:"retuneIntervalMs,omitempty"`
}

// ClusterConfig is the router-tier block of ipurouterd: the shard fleet, the
// replica factor, and the health-probe / placement-repair cadence. Zero
// values select the cluster package defaults.
type ClusterConfig struct {
	// Addr is the router's HTTP listen address (default ":8780").
	Addr string `json:"addr,omitempty"`
	// Shards are the backend base URLs, e.g. "http://127.0.0.1:8723".
	Shards []string `json:"shards,omitempty"`
	// Replicas is the replica factor: each system is registered on this many
	// shards (default 2, capped by the fleet size).
	Replicas int `json:"replicas,omitempty"`
	// VNodes is the virtual-node count per shard on the hash ring (default 64).
	VNodes int `json:"vnodes,omitempty"`
	// ProbeIntervalMs is the /readyz health-probe period (default 250ms).
	ProbeIntervalMs int `json:"probeIntervalMs,omitempty"`
	// ProbeTimeoutMs bounds one health probe (default 2000ms).
	ProbeTimeoutMs int `json:"probeTimeoutMs,omitempty"`
	// ReconcileIntervalMs is the placement-repair period (default 1000ms).
	ReconcileIntervalMs int `json:"reconcileIntervalMs,omitempty"`
	// BreakerThreshold consecutive transport failures open a shard's circuit
	// breaker (default 3).
	BreakerThreshold int `json:"breakerThreshold,omitempty"`
	// BreakerCooldownMs is the open-breaker cooldown (default 3000ms).
	BreakerCooldownMs int `json:"breakerCooldownMs,omitempty"`
	// RegisterTimeoutMs bounds one registration import against one shard
	// (default 60000ms — a registration pays partitioning and compilation).
	RegisterTimeoutMs int `json:"registerTimeoutMs,omitempty"`
	// MaxBodyBytes bounds proxied request bodies (default 1<<28).
	MaxBodyBytes int64 `json:"maxBodyBytes,omitempty"`
}

// EngineConfig tunes the host-side BSP engine. Parallelism never changes
// results — compute supersteps are bit-identical and cycle-identical at every
// setting — only host wall time.
type EngineConfig struct {
	// Parallelism is the number of host shards per BSP superstep: 0 (the
	// default) uses the shared host pool's worker count (GOMAXPROCS), 1 runs
	// serially on the coordinator goroutine.
	Parallelism int `json:"parallelism,omitempty"`

	// Backend selects the execution backend (see ResolveBackend): "sim"/
	// "simulator" (the default; cycle-accurate, supports device tracing) or
	// "native" (flat host-speed kernels, no cycle accounting — the serving
	// default). Both run fault campaigns. Backends agree at residual level,
	// not bit level.
	Backend string `json:"backend,omitempty"`

	// Trace, when set, writes each run's combined host/device timeline to
	// this file in Chrome trace-event JSON — the config spelling of the
	// core WithTrace option. Device tracing is simulator-only: resolving
	// this key against the native backend is a typed capability mismatch
	// (UnsupportedError), rejected at Prepare / registration time.
	Trace string `json:"trace,omitempty"`
}

// Config is the root of a solver configuration file.
type Config struct {
	Solver   SolverConfig    `json:"solver"`
	MPIR     *MPIRConfig     `json:"mpir,omitempty"`
	Fault    *FaultConfig    `json:"fault,omitempty"`
	Recovery *RecoveryConfig `json:"recovery,omitempty"`
	Serve    *ServeConfig    `json:"serve,omitempty"`
	Cluster  *ClusterConfig  `json:"cluster,omitempty"`
	Engine   *EngineConfig   `json:"engine,omitempty"`
}

// EngineParallelism returns the configured engine parallelism (0 = automatic).
func (c Config) EngineParallelism() int {
	if c.Engine == nil {
		return 0
	}
	return c.Engine.Parallelism
}

// EngineBackend returns the configured execution backend name ("" = default,
// the cycle-accurate simulator).
func (c Config) EngineBackend() string {
	if c.Engine == nil {
		return ""
	}
	return c.Engine.Backend
}

// EngineTrace returns the configured device-trace output path ("" = off).
func (c Config) EngineTrace() string {
	if c.Engine == nil {
		return ""
	}
	return c.Engine.Trace
}

// Default returns the paper's reference configuration:
// MPIR(double-word) around PBiCGStab+ILU(0).
func Default() Config {
	return Config{
		Solver: SolverConfig{
			Type:           "pbicgstab",
			MaxIterations:  10000,
			Tolerance:      1e-9,
			Preconditioner: &SolverConfig{Type: "ilu0"},
		},
		MPIR: &MPIRConfig{Extended: "dw", InnerIterations: 100, MaxOuter: 100, Tolerance: 1e-9},
	}
}

// Parse reads a configuration from JSON.
func Parse(r io.Reader) (Config, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

var solverTypes = map[string]bool{
	"pbicgstab": true, "bicgstab": true, "cg": true, "gaussseidel": true,
	"richardson": true, "jacobi": true, "ilu0": true, "dilu": true, "none": true,
	"chebyshev": true,
}

// faultKinds maps the configuration names to the fault package's kinds.
var faultKinds = map[string]fault.Kind{
	"bit-flip":         fault.BitFlip,
	"exchange-corrupt": fault.ExchangeCorrupt,
	"exchange-drop":    fault.ExchangeDrop,
	"tile-stall":       fault.TileStall,
	"host-transient":   fault.HostTransient,
}

// buildableSolvers are the solver types buildSolver can construct — the valid
// targets for the top-level solver and the recovery fallback (preconditioner
// -only types like chebyshev are excluded).
var buildableSolvers = map[string]bool{
	"pbicgstab": true, "bicgstab": true, "cg": true, "richardson": true,
	"gaussseidel": true, "jacobi": true, "ilu0": true, "dilu": true,
}

// restartableSolvers are the iterative solver types with a restartable state:
// the only inner solves mpir can refine with and the only solvers a recovery
// policy can harden (solver.WithRecovery takes no other).
var restartableSolvers = map[string]bool{"pbicgstab": true, "bicgstab": true, "cg": true, "richardson": true}

// Validate checks the configuration tree.
func (c Config) Validate() error {
	if err := c.Solver.validate(true); err != nil {
		return err
	}
	if c.MPIR != nil {
		if !restartableSolvers[c.Solver.Type] {
			return fmt.Errorf("config: mpir cannot refine with a %q inner solver (pbicgstab, bicgstab, cg or richardson)", c.Solver.Type)
		}
		switch c.MPIR.Extended {
		case "dw", "dp", "none":
		default:
			return fmt.Errorf("config: mpir.extended must be dw, dp or none, got %q", c.MPIR.Extended)
		}
		if c.MPIR.InnerIterations <= 0 {
			return fmt.Errorf("config: mpir.innerIterations must be positive")
		}
		if c.MPIR.MaxOuter <= 0 {
			return fmt.Errorf("config: mpir.maxOuter must be positive")
		}
		if c.MPIR.Tolerance < 0 {
			return fmt.Errorf("config: mpir.tolerance must not be negative")
		}
	}
	if c.Fault != nil {
		if c.Fault.Rate < 0 || c.Fault.Rate > 1 {
			return fmt.Errorf("config: fault.rate must be in [0,1], got %v", c.Fault.Rate)
		}
		for _, k := range c.Fault.Kinds {
			if _, ok := faultKinds[k]; !ok {
				return fmt.Errorf("config: unknown fault kind %q", k)
			}
		}
		if c.Fault.MaxFaults < 0 || c.Fault.StallCycles < 0 ||
			c.Fault.RetryBudget < 0 || c.Fault.HostRetries < 0 {
			return fmt.Errorf("config: negative fault budget")
		}
	}
	if c.Recovery != nil {
		if !c.Recoverable() {
			return fmt.Errorf("config: recovery cannot harden a %q solver (pbicgstab, bicgstab, cg or richardson)", c.Solver.Type)
		}
		if c.Recovery.Interval < 0 {
			return fmt.Errorf("config: recovery.interval must not be negative")
		}
		if c.Recovery.MaxRestarts < 0 {
			return fmt.Errorf("config: recovery.maxRestarts must not be negative")
		}
		if fb := c.Recovery.Fallback; fb != nil {
			if !buildableSolvers[fb.Type] {
				return fmt.Errorf("config: recovery.fallback cannot be of type %q", fb.Type)
			}
			if err := fb.validate(true); err != nil {
				return err
			}
		}
	}
	if c.Engine != nil && c.Engine.Parallelism < 0 {
		return fmt.Errorf("config: engine.parallelism must be >= 0, got %d", c.Engine.Parallelism)
	}
	if c.Engine != nil {
		if _, err := ResolveBackend(c.Engine.Backend, false); err != nil {
			return err
		}
	}
	if s := c.Serve; s != nil {
		if s.CacheCapacity < 0 || s.ReplicasPerKey < 0 || s.QueueDepth < 0 ||
			s.Workers < 0 || s.DefaultTimeoutMs < 0 || s.Tiles < 0 || s.Chips < 0 {
			return fmt.Errorf("config: negative serve parameter")
		}
		if s.MaxBodyBytes < 0 || s.VerifyTolerance < 0 || s.RetryBaseMs < 0 ||
			s.HedgeAfterMs < 0 || s.BreakerCooldownMs < 0 {
			return fmt.Errorf("config: negative serve resilience parameter")
		}
		if s.RetryMax < -1 {
			return fmt.Errorf("config: serve.retryMax must be >= -1, got %d", s.RetryMax)
		}
		if s.BreakerThreshold < -1 {
			return fmt.Errorf("config: serve.breakerThreshold must be >= -1, got %d", s.BreakerThreshold)
		}
		switch s.Partition {
		case "", "contiguous", "greedy":
		default:
			return fmt.Errorf("config: serve.partition must be contiguous or greedy, got %q", s.Partition)
		}
		if r := s.Refresh; r != nil && r.WarmReplicas < 0 {
			return fmt.Errorf("config: serve.refresh.warmReplicas must not be negative, got %d", r.WarmReplicas)
		}
		if t := s.Tune; t != nil {
			if t.BudgetMs < 0 || t.Solves < 0 || t.RetuneIntervalMs < 0 {
				return fmt.Errorf("config: negative serve.tune parameter")
			}
		}
		if ch := s.Chaos; ch != nil {
			if ch.Rate < 0 || ch.Rate > 1 {
				return fmt.Errorf("config: serve.chaos.rate must be in [0,1], got %v", ch.Rate)
			}
			for _, k := range ch.Kinds {
				if _, err := fault.ParseChaosKind(k); err != nil {
					return fmt.Errorf("config: %w", err)
				}
			}
			if ch.MaxEvents < 0 || ch.StallMs < 0 {
				return fmt.Errorf("config: negative serve.chaos budget")
			}
		}
	}
	if cl := c.Cluster; cl != nil {
		if cl.Replicas < 0 || cl.VNodes < 0 || cl.ProbeIntervalMs < 0 ||
			cl.ProbeTimeoutMs < 0 || cl.ReconcileIntervalMs < 0 ||
			cl.BreakerThreshold < 0 || cl.BreakerCooldownMs < 0 ||
			cl.RegisterTimeoutMs < 0 || cl.MaxBodyBytes < 0 {
			return fmt.Errorf("config: negative cluster parameter")
		}
		for _, s := range cl.Shards {
			if s == "" {
				return fmt.Errorf("config: empty cluster shard URL")
			}
		}
	}
	return nil
}

// Recoverable reports whether a recovery block can harden the solver
// hierarchy: its top-level solver (under mpir, each correction solve) is one
// with a restartable state.
func (c Config) Recoverable() bool { return restartableSolvers[c.Solver.Type] }

// Plan converts the fault section into a campaign plan for fault.New.
func (fc *FaultConfig) Plan() fault.Plan {
	p := fault.Plan{
		Seed:        fc.Seed,
		Rate:        fc.Rate,
		MaxFaults:   fc.MaxFaults,
		StallCycles: uint64(fc.StallCycles),
		RetryBudget: fc.RetryBudget,
		HostRetries: fc.HostRetries,
	}
	for _, name := range fc.Kinds {
		if k, ok := faultKinds[name]; ok {
			p.Kinds = append(p.Kinds, k)
		}
	}
	return p
}

// BuildRecovery constructs the resilience policy for a system (nil for a nil
// section). The fallback solver tree is built lazily at schedule time.
func BuildRecovery(sys *solver.System, rc *RecoveryConfig) (*solver.Recovery, error) {
	if rc == nil {
		return nil, nil
	}
	rec := &solver.Recovery{Interval: rc.Interval, MaxRestarts: rc.MaxRestarts}
	if rc.Fallback != nil {
		fb := *rc.Fallback
		// Build once now so a bad fallback fails at configuration time, not in
		// the middle of a scheduled escalation.
		if _, err := buildSolver(sys, &fb, fb.MaxIterations, fb.Tolerance); err != nil {
			return nil, err
		}
		rec.Fallback = func() solver.Solver {
			s, err := buildSolver(sys, &fb, fb.MaxIterations, fb.Tolerance)
			if err != nil {
				panic(err) // unreachable: validated above
			}
			return s
		}
	}
	return rec, nil
}

func (sc *SolverConfig) validate(top bool) error {
	if !solverTypes[sc.Type] {
		return fmt.Errorf("config: unknown solver type %q", sc.Type)
	}
	if sc.Tolerance < 0 {
		return fmt.Errorf("config: negative tolerance")
	}
	if sc.ABFT && !top {
		return fmt.Errorf("config: solver.abft applies to the top-level solver only")
	}
	if sc.Preconditioner != nil {
		switch sc.Type {
		case "pbicgstab", "bicgstab", "cg", "richardson":
		default:
			return fmt.Errorf("config: solver type %q takes no preconditioner", sc.Type)
		}
		return sc.Preconditioner.validate(false)
	}
	return nil
}

// ExtScalar returns the extended-precision scalar type of the MPIR section.
func (mc *MPIRConfig) ExtScalar() ipu.Scalar {
	switch mc.Extended {
	case "dw":
		return ipu.DW
	case "dp":
		return ipu.F64
	default:
		return ipu.F32
	}
}

// BuildPreconditioner constructs the preconditioner tree for a system.
func BuildPreconditioner(sys *solver.System, sc *SolverConfig) (solver.Preconditioner, error) {
	if sc == nil {
		return solver.Identity{Sys: sys}, nil
	}
	if sc.Coarse {
		inner := *sc
		inner.Coarse = false
		fine, err := BuildPreconditioner(sys, &inner)
		if err != nil {
			return nil, err
		}
		return &solver.CoarseCorrection{Sys: sys, Fine: fine}, nil
	}
	switch sc.Type {
	case "none":
		return solver.Identity{Sys: sys}, nil
	case "jacobi":
		return &solver.Jacobi{Sys: sys}, nil
	case "ilu0":
		return &solver.ILU{Sys: sys}, nil
	case "dilu":
		return &solver.DILU{Sys: sys}, nil
	case "gaussseidel":
		return &solver.GaussSeidel{Sys: sys, Sweeps: max1(sc.Sweeps), Symmetric: sc.Symmetric}, nil
	case "chebyshev":
		return &solver.Chebyshev{Sys: sys, Degree: sc.Degree}, nil
	case "pbicgstab", "bicgstab", "cg", "richardson":
		iters := sc.Iterations
		if iters <= 0 {
			iters = 5
		}
		scCopy := *sc
		return &solver.SolverPrecond{
			Iter: iters,
			Make: func(maxIter int) solver.Solver {
				s, err := buildSolver(sys, &scCopy, maxIter, 0)
				if err != nil {
					panic(err)
				}
				return s
			},
		}, nil
	default:
		return nil, fmt.Errorf("config: cannot use %q as preconditioner", sc.Type)
	}
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// BuildSolver constructs the configured solver tree over the system. The
// returned solver schedules the preconditioner setup itself.
func BuildSolver(sys *solver.System, c Config) (solver.Solver, error) {
	return buildSolver(sys, &c.Solver, c.Solver.MaxIterations, c.Solver.Tolerance)
}

func buildSolver(sys *solver.System, sc *SolverConfig, maxIter int, tol float64) (solver.Solver, error) {
	if maxIter <= 0 {
		maxIter = 1000
	}
	switch sc.Type {
	case "pbicgstab", "bicgstab":
		pre, err := BuildPreconditioner(sys, sc.Preconditioner)
		if err != nil {
			return nil, err
		}
		return &solver.PBiCGStab{Sys: sys, Pre: pre, MaxIter: maxIter, Tol: tol, SetupPre: true}, nil
	case "cg":
		pre, err := BuildPreconditioner(sys, sc.Preconditioner)
		if err != nil {
			return nil, err
		}
		return &solver.CG{Sys: sys, Pre: pre, MaxIter: maxIter, Tol: tol, SetupPre: true}, nil
	case "richardson":
		pre, err := BuildPreconditioner(sys, sc.Preconditioner)
		if err != nil {
			return nil, err
		}
		return &solver.Richardson{Sys: sys, Pre: pre, MaxIter: maxIter, Tol: tol, SetupPre: true}, nil
	case "gaussseidel":
		return solver.NewGaussSeidelSolver(sys, max1(sc.Sweeps), maxIter, tol), nil
	case "jacobi":
		return &solver.Richardson{Sys: sys, Pre: &solver.Jacobi{Sys: sys}, MaxIter: maxIter, Tol: tol, SetupPre: true}, nil
	case "ilu0":
		return &solver.Richardson{Sys: sys, Pre: &solver.ILU{Sys: sys}, MaxIter: maxIter, Tol: tol, SetupPre: true}, nil
	case "dilu":
		return &solver.Richardson{Sys: sys, Pre: &solver.DILU{Sys: sys}, MaxIter: maxIter, Tol: tol, SetupPre: true}, nil
	default:
		return nil, fmt.Errorf("config: cannot build solver of type %q", sc.Type)
	}
}
