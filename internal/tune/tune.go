// Package tune is the per-pattern autotuner: it races the static default
// execution configuration against native partition-strategy and
// preconditioner variants, on the actual matrix on the actual host, under a
// bounded time budget, and returns the measured winner. The default is always
// raced first, so the winner beats or ties it by construction; challengers
// run the native backend only, because the simulator has never won a race
// against it. The serving layer caches decisions in its registry WAL and
// re-races in the background when the measured latency regresses.
package tune

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"ipusparse/internal/backend"
	"ipusparse/internal/config"
	"ipusparse/internal/core"
	"ipusparse/internal/ipu"
	"ipusparse/internal/sparse"
)

// Candidate is one execution configuration in the race. Zero-valued fields
// keep the registered configuration's choice.
type Candidate struct {
	Strategy string `json:"strategy,omitempty"` // partition strategy
	Backend  string `json:"backend,omitempty"`  // execution backend
	Precond  string `json:"precond,omitempty"`  // preconditioner type ("" = registered)
}

// String renders the candidate compactly for logs and tables.
func (c Candidate) String() string {
	s := c.Strategy
	if s == "" {
		s = "contiguous"
	}
	be := c.Backend
	if be == "" {
		be = "native"
	}
	out := fmt.Sprintf("%s/%s", s, be)
	if c.Precond != "" {
		out += "/" + c.Precond
	}
	return out
}

// Measurement is one raced candidate's outcome.
type Measurement struct {
	Candidate
	Seconds        float64 `json:"seconds"`        // best warm per-solve wall time
	PrepareSeconds float64 `json:"prepareSeconds"` // one-time pipeline build cost
	Iterations     int     `json:"iterations,omitempty"`
	Converged      bool    `json:"converged"`
	Error          string  `json:"error,omitempty"`
}

// Decision is the cached outcome of one race: what ran, what won, and by how
// much. It is the payload the serve tier persists in its registry WAL and
// exports with cluster registration records.
type Decision struct {
	Pattern      string        `json:"pattern"` // sparsity-pattern fingerprint (p%016x)
	Default      Candidate     `json:"default"`
	Winner       Candidate     `json:"winner"`
	DefaultSec   float64       `json:"defaultSeconds"`
	WinnerSec    float64       `json:"winnerSeconds"`
	Speedup      float64       `json:"speedup"` // default / winner, ≥ 1 by construction
	Races        []Measurement `json:"races"`
	BudgetSec    float64       `json:"budgetSeconds"`
	ElapsedSec   float64       `json:"elapsedSeconds"`
	CalibratedAt string        `json:"calibratedAt"` // RFC3339 race timestamp
	Retunes      int           `json:"retunes,omitempty"`
}

// Options configures one race.
type Options struct {
	// Budget bounds the whole race. The default candidate is always measured
	// even when the budget is already spent. Default 2s.
	Budget time.Duration
	// Solves is the warm solve count per candidate (best-of). Default 3.
	Solves int
	// Default is the static configuration to beat; its zero value means the
	// registered configuration as-is (contiguous/config backend).
	Default Candidate
}

func (o Options) withDefaults() Options {
	if o.Budget <= 0 {
		o.Budget = 2 * time.Second
	}
	if o.Solves <= 0 {
		o.Solves = 3
	}
	return o
}

// Candidates enumerates the race field for a configuration: the normalized
// default first, then the native challengers — each partition strategy at the
// default preconditioner, and the preconditioner swap at the default
// strategy. The simulator races only when it is the default: it has never
// beaten native on the same answer. Candidates the configuration cannot run
// (a backend that rejects the config's features, a preconditioner swap under
// MPIR) are excluded, so the field holds at most 4.
func Candidates(cfg config.Config, def Candidate) []Candidate {
	def = normalize(def, cfg)
	out := []Candidate{def}
	add := func(c Candidate) {
		if c = normalize(c, cfg); !slices.Contains(out, c) && runnable(c, cfg) {
			out = append(out, c)
		}
	}
	for _, st := range []string{"contiguous", "greedy"} {
		add(Candidate{Strategy: st, Backend: "native", Precond: def.Precond})
	}
	if cfg.MPIR == nil && cfg.Solver.Preconditioner != nil && !cfg.Solver.Preconditioner.Coarse {
		// Swap only between the cheap-setup general-purpose preconditioners;
		// the race's convergence gate rejects a swap that does not converge.
		for _, pc := range []string{"jacobi", "ilu0"} {
			add(Candidate{Strategy: def.Strategy, Backend: "native", Precond: pc})
		}
	}
	return out
}

// normalize fills a candidate's zero fields from the configuration so equal
// effective configurations dedupe, and canonicalizes backend spellings.
func normalize(c Candidate, cfg config.Config) Candidate {
	if c.Strategy == "" {
		c.Strategy = string(core.PartitionContiguous)
	}
	if c.Backend == "" {
		c.Backend = cfg.EngineBackend()
		if c.Backend == "" {
			c.Backend = "native"
		}
	}
	if c.Backend == "simulator" {
		c.Backend = "sim"
	}
	if c.Precond == "" && cfg.MPIR == nil && cfg.Solver.Preconditioner != nil {
		c.Precond = cfg.Solver.Preconditioner.Type
	}
	return c
}

// runnable reports whether the candidate's backend can execute the
// configuration (device tracing is simulator-only).
func runnable(c Candidate, cfg config.Config) bool {
	be, err := backend.ByName(c.Backend)
	if err != nil {
		return false
	}
	cc := ApplyPrecond(cfg, c.Precond)
	return backend.CheckConfig(be, &cc) == nil
}

// ApplyPrecond returns the configuration with the candidate's preconditioner
// knob applied ("" keeps the registered one). The copy never aliases the
// input's nested preconditioner config.
func ApplyPrecond(cfg config.Config, precond string) config.Config {
	if precond == "" || cfg.Solver.Preconditioner == nil {
		return cfg
	}
	pc := *cfg.Solver.Preconditioner
	pc.Type = precond
	cfg.Solver.Preconditioner = &pc
	return cfg
}

// Tuned converts a candidate to the core prepare-time override.
func (c Candidate) Tuned() core.Tuned {
	return core.Tuned{Strategy: core.PartitionStrategy(c.Strategy), Backend: c.Backend}
}

// Race measures the candidates against b = A·1 and returns the decision. The
// default candidate is always raced first and in full, so the winner beats or
// ties it by construction; the remainder race until the budget is spent. A
// candidate that fails to prepare or to converge is recorded but can never
// win. ctx is checked before each candidate: once it is done the race stops
// and returns ctx.Err() with no decision.
func Race(ctx context.Context, mc ipu.Config, m *sparse.Matrix, cfg config.Config, o Options) (*Decision, error) {
	o = o.withDefaults()
	cands := Candidates(cfg, o.Default)
	start := time.Now()
	deadline := start.Add(o.Budget)

	b := make([]float64, m.N)
	ones := make([]float64, m.N)
	for i := range ones {
		ones[i] = 1
	}
	m.MulVec(ones, b)

	d := &Decision{
		Pattern:      m.PatternFingerprintString(),
		Default:      cands[0],
		BudgetSec:    o.Budget.Seconds(),
		CalibratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	for i, c := range cands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if i > 0 && time.Now().After(deadline) {
			break
		}
		d.Races = append(d.Races, measure(mc, m, cfg, c, b, o.Solves))
	}
	d.ElapsedSec = time.Since(start).Seconds()

	d.DefaultSec = d.Races[0].Seconds
	best := -1
	for i, r := range d.Races {
		if !r.Converged || r.Error != "" {
			continue
		}
		if best < 0 || r.Seconds < d.Races[best].Seconds {
			best = i
		}
	}
	if best < 0 {
		// Nothing converged (including the default): surface the default's
		// failure rather than inventing a winner.
		if d.Races[0].Error != "" {
			return nil, fmt.Errorf("tune: default candidate failed: %s", d.Races[0].Error)
		}
		return nil, fmt.Errorf("tune: no candidate converged")
	}
	d.Winner = d.Races[best].Candidate
	d.WinnerSec = d.Races[best].Seconds
	if d.WinnerSec > 0 && d.DefaultSec > 0 {
		d.Speedup = d.DefaultSec / d.WinnerSec
	}
	return d, nil
}

// measure races one candidate: prepare, one warm-up solve, then best-of-k
// timed warm solves with a convergence gate.
func measure(mc ipu.Config, m *sparse.Matrix, cfg config.Config, c Candidate, b []float64, solves int) Measurement {
	mm := Measurement{Candidate: c}
	cc := ApplyPrecond(cfg, c.Precond)
	t0 := time.Now()
	p, err := core.Prepare(mc, m, cc, core.PartitionStrategy(c.Strategy), core.WithTuned(c.Tuned()))
	mm.PrepareSeconds = time.Since(t0).Seconds()
	if err != nil {
		mm.Error = err.Error()
		return mm
	}
	x := make([]float64, m.N)
	st, err := p.SolveInto(x, b) // warm-up: grows every buffer once
	if err != nil {
		mm.Error = err.Error()
		return mm
	}
	mm.Iterations, mm.Converged = st.Iterations, st.Converged
	if !st.Converged {
		return mm
	}
	best := math.Inf(1)
	for r := 0; r < solves; r++ {
		t0 := time.Now()
		st, err = p.SolveInto(x, b)
		d := time.Since(t0).Seconds()
		if err != nil {
			mm.Error = err.Error()
			return mm
		}
		if !st.Converged {
			mm.Converged = false
			return mm
		}
		if d < best {
			best = d
		}
	}
	mm.Seconds = best
	return mm
}
