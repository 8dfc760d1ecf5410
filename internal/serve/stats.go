package serve

import (
	"time"

	"ipusparse/internal/config"
	"ipusparse/internal/telemetry"
)

// Stats is a point-in-time snapshot of the service counters. The JSON field
// names are the /stats wire contract; the values are backed by the service's
// telemetry registry (the same instruments /metrics exposes).
type Stats struct {
	// Prepared-pipeline cache.
	CacheHits   uint64 `json:"cacheHits"`   // solves served by a cached replica
	CacheMisses uint64 `json:"cacheMisses"` // solves that had to prepare a pipeline
	Evictions   uint64 `json:"evictions"`   // cache entries dropped under pressure
	CacheSize   int    `json:"cacheSize"`   // resident entries

	// Queue and worker pool.
	QueueDepth int    `json:"queueDepth"` // jobs queued, not yet picked up
	Rejected   uint64 `json:"rejected"`   // jobs refused by admission control
	Solved     uint64 `json:"solved"`     // completed solves

	// Latency percentiles estimated from the solve-latency histogram
	// (milliseconds of wall time per solve).
	P50Ms float64 `json:"p50Ms"`
	P99Ms float64 `json:"p99Ms"`

	// Simulated-device cost: average IPU cycles per completed solve. Zero on
	// the native backend, which runs no cycle model.
	CyclesPerSolve uint64 `json:"cyclesPerSolve"`

	// Backend is the execution backend every replica runs: always "native".
	Backend string `json:"backend"`

	// Supervision layer.
	Retries         uint64 `json:"retries"`         // retry attempts after retryable failures
	Hedges          uint64 `json:"hedges"`          // hedged (second-replica) attempts fired
	HedgeWins       uint64 `json:"hedgeWins"`       // hedged attempts that returned the answer
	Panics          uint64 `json:"panics"`          // replica panics caught by the supervisor
	Quarantined     uint64 `json:"quarantined"`     // replicas dropped as corrupt
	Rebuilt         uint64 `json:"rebuilt"`         // replicas rebuilt after quarantine
	Verified        uint64 `json:"verified"`        // answers that passed residual verification
	VerifyFailed    uint64 `json:"verifyFailed"`    // answers rejected by residual verification
	SDCEscapes      uint64 `json:"sdcEscapes"`      // claimed-converged answers only the host oracle caught
	BreakerRejected uint64 `json:"breakerRejected"` // solves shed by an open circuit breaker
	BreakerOpens    uint64 `json:"breakerOpens"`    // circuit-breaker open transitions
	BreakersOpen    int    `json:"breakersOpen"`    // systems currently shedding load

	// Crash-safe registry health.
	RegistryWALErrors uint64 `json:"registryWalErrors"` // WAL write/fsync failures
	Draining          bool   `json:"draining"`          // admission closed, in-flight work finishing

	// Values-only refresh path. Omitted from /stats until the first refresh
	// (the base wire contract predates the refresh tier).
	Refreshed       uint64 `json:"refreshed,omitempty"`       // cached replicas refreshed in place
	RefreshMismatch uint64 `json:"refreshMismatch,omitempty"` // updates rejected for a pattern change

	// Autotuner.
	Tuned   uint64 `json:"tuned"`   // candidate races completed (registration + forced)
	Retunes uint64 `json:"retunes"` // background/forced re-races of an already tuned system
}

// statsCollector is the service's pre-resolved instrument set on its
// telemetry registry. The hot path records through lock-free atomic handles;
// the /stats JSON snapshot and the /metrics exposition read the same series.
type statsCollector struct {
	hits      *telemetry.Counter
	misses    *telemetry.Counter
	evictions *telemetry.Counter
	rejected  *telemetry.Counter
	solved    *telemetry.Counter
	cycles    *telemetry.Counter // total simulated cycles over all solves

	retries         *telemetry.Counter
	hedges          *telemetry.Counter
	hedgeWins       *telemetry.Counter
	panics          *telemetry.Counter
	quarantined     *telemetry.Counter
	rebuilt         *telemetry.Counter
	verified        *telemetry.Counter
	verifyFailed    *telemetry.Counter
	sdcEscapes      *telemetry.Counter
	breakerRejected *telemetry.Counter
	breakerOpens    *telemetry.Counter

	refreshed       *telemetry.Counter // serve_refreshed_total
	refreshMismatch *telemetry.Counter // serve_refresh_mismatch_total

	walErrors *telemetry.Counter // registry_wal_errors_total

	tuneRaces       *telemetry.Counter    // tune_races_total
	tuneRetunes     *telemetry.Counter    // tune_retunes_total
	tuneWins        *telemetry.CounterVec // tune_wins{strategy}
	tuneRaceSeconds *telemetry.Histogram  // tune_race_seconds

	latency      *telemetry.Histogram // serve_solve_latency_seconds
	breakerState *telemetry.GaugeVec  // serve_breaker_state{system}
}

func newStatsCollector(reg *telemetry.Registry) statsCollector {
	return statsCollector{
		hits:      reg.Counter("serve_cache_hits_total", "Solves served by a cached prepared replica."),
		misses:    reg.Counter("serve_cache_misses_total", "Solves that had to prepare a pipeline."),
		evictions: reg.Counter("serve_cache_evictions_total", "Prepared-pipeline cache entries dropped under pressure."),
		rejected:  reg.Counter("serve_rejected_total", "Jobs refused by admission control."),
		solved:    reg.Counter("serve_solves_total", "Completed solves."),
		cycles:    reg.Counter("serve_solve_cycles_total", "Simulated IPU cycles over all completed solves."),

		retries:      reg.Counter("serve_retries_total", "Retry attempts after retryable failures."),
		hedges:       reg.Counter("serve_hedges_total", "Hedged (second-replica) attempts fired."),
		hedgeWins:    reg.Counter("serve_hedge_wins_total", "Hedged attempts that returned the answer."),
		panics:       reg.Counter("serve_panics_total", "Replica panics caught by the supervisor."),
		quarantined:  reg.Counter("serve_quarantined_total", "Replicas dropped as corrupt."),
		rebuilt:      reg.Counter("serve_rebuilt_total", "Replicas rebuilt after quarantine."),
		verified:     reg.Counter("serve_verified_total", "Answers that passed residual verification."),
		verifyFailed: reg.Counter("serve_verify_failed_total", "Answers rejected by residual verification."),
		// Shared with solver.Metrics (instrument registration is idempotent
		// per name): a claimed-converged answer that only the independent
		// host oracle rejected means the corruption escaped every in-loop
		// ABFT guard — the number sdc-smoke asserts stays zero.
		sdcEscapes: reg.Counter("sdc_escapes_total",
			"Corrupted claimed-converged answers that escaped in-loop ABFT detection."),
		breakerRejected: reg.Counter("serve_breaker_rejected_total", "Solves shed by an open circuit breaker."),
		breakerOpens:    reg.Counter("serve_breaker_opens_total", "Circuit-breaker open transitions."),

		refreshed: reg.Counter("serve_refreshed_total",
			"Cached prepared replicas refreshed in place by values-only updates."),
		refreshMismatch: reg.Counter("serve_refresh_mismatch_total",
			"Values-only updates rejected because the sparsity pattern changed."),

		walErrors: reg.Counter("registry_wal_errors_total",
			"Registration WAL write/fsync failures (persistence trouble)."),

		tuneRaces: reg.Counter("tune_races_total",
			"Autotuner candidate races completed (registration-time and forced)."),
		tuneRetunes: reg.Counter("tune_retunes_total",
			"Re-races of an already tuned system (latency regression or forced)."),
		tuneWins: reg.CounterVec("tune_wins",
			"Race wins by partition strategy of the winning candidate.", "strategy"),
		tuneRaceSeconds: reg.Histogram("tune_race_seconds",
			"Autotuner race wall time (candidate enumeration to decision).",
			telemetry.ExponentialBuckets(0.01, 2, 12)),

		latency: reg.Histogram("serve_solve_latency_seconds",
			"Solve wall latency (queue pickup to answer).",
			telemetry.ExponentialBuckets(0.0005, 2, 16)),
		breakerState: reg.GaugeVec("serve_breaker_state",
			"Per-system circuit-breaker state (0 closed, 1 half-open, 2 open).", "system"),
	}
}

func (c *statsCollector) recordSolve(wall time.Duration, cycles uint64) {
	c.solved.Inc()
	c.cycles.Add(cycles)
	c.latency.Observe(wall.Seconds())
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	st := Stats{
		CacheHits:   s.stats.hits.Value(),
		CacheMisses: s.stats.misses.Value(),
		Evictions:   s.stats.evictions.Value(),
		QueueDepth:  len(s.jobs),
		Rejected:    s.stats.rejected.Value(),
		Solved:      s.stats.solved.Value(),
		Backend:     config.BackendNative,
		P50Ms:       1e3 * s.stats.latency.Quantile(0.50),
		P99Ms:       1e3 * s.stats.latency.Quantile(0.99),

		Retries:         s.stats.retries.Value(),
		Hedges:          s.stats.hedges.Value(),
		HedgeWins:       s.stats.hedgeWins.Value(),
		Panics:          s.stats.panics.Value(),
		Quarantined:     s.stats.quarantined.Value(),
		Rebuilt:         s.stats.rebuilt.Value(),
		Verified:        s.stats.verified.Value(),
		VerifyFailed:    s.stats.verifyFailed.Value(),
		SDCEscapes:      s.stats.sdcEscapes.Value(),
		BreakerRejected: s.stats.breakerRejected.Value(),
		BreakerOpens:    s.stats.breakerOpens.Value(),
		BreakersOpen:    s.openBreakers(),
	}
	st.RegistryWALErrors = s.stats.walErrors.Value()
	st.Refreshed = s.stats.refreshed.Value()
	st.RefreshMismatch = s.stats.refreshMismatch.Value()
	st.Tuned = s.stats.tuneRaces.Value()
	st.Retunes = s.stats.tuneRetunes.Value()
	if st.Solved > 0 {
		st.CyclesPerSolve = s.stats.cycles.Value() / st.Solved
	}
	s.mu.Lock()
	st.CacheSize = s.lru.Len()
	st.Draining = s.draining || s.closed
	s.mu.Unlock()
	return st
}
