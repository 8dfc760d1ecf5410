// Package serve turns the two-phase core API into a long-running solver
// service: registered systems are prepared once (partition, upload, symbolic
// scheduling) and the compiled pipelines are pooled in an LRU cache, so every
// subsequent right-hand side pays only the execution cost. A bounded job
// queue with admission control and a worker pool bound the service's
// concurrency; per-job deadlines propagate through context.Context.
package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ipusparse/internal/breaker"
	"ipusparse/internal/config"
	"ipusparse/internal/core"
	"ipusparse/internal/fault"
	"ipusparse/internal/ipu"
	"ipusparse/internal/telemetry"
)

// Typed service errors; the HTTP layer maps them to status codes.
var (
	// ErrOverloaded rejects a job because the queue is full (admission
	// control: better an immediate 429 than unbounded latency).
	ErrOverloaded = errors.New("serve: job queue full")
	// ErrNotFound rejects a solve against an unregistered system.
	ErrNotFound = errors.New("serve: unknown system")
	// ErrClosed rejects work submitted after Close started draining.
	ErrClosed = errors.New("serve: service closed")
	// ErrDraining rejects new work while the service drains: queued jobs
	// still complete, but admission is closed so a router can fail the
	// request over to a replica shard instead of queueing behind a drain.
	ErrDraining = errors.New("serve: service draining")
	// ErrCircuitOpen sheds a solve because the system's circuit breaker is
	// open: it has failed repeatedly and is cooling down before a probe.
	ErrCircuitOpen = errors.New("serve: circuit open")
	// ErrBodyTooLarge rejects an HTTP request whose body exceeds the
	// configured limit.
	ErrBodyTooLarge = errors.New("serve: request body too large")
	// ErrRefreshDisabled rejects a values-only update while the refresh path
	// is configured off (serve.refresh.enabled = false).
	ErrRefreshDisabled = errors.New("serve: values-only refresh disabled")
)

// Options configures a Service. The zero value of each field selects the
// default noted on it.
type Options struct {
	CacheCapacity  int                    // prepared-pipeline LRU entries (default 8)
	ReplicasPerKey int                    // concurrent Prepared replicas per key (default 2)
	QueueDepth     int                    // job queue bound (default 64)
	Workers        int                    // solve worker pool size (default 4)
	DefaultTimeout time.Duration          // per-job deadline when the caller sets none (default 30s)
	Machine        ipu.Config             // simulated machine (default 64-tile single-chip Mk2)
	Strategy       core.PartitionStrategy // partition strategy (default contiguous)
	// Solver is the configuration of registered systems that bring none.
	// Every replica runs the native backend: registration drops any engine
	// block, so serving bills no cycles (CyclesPerSolve reads 0).
	Solver config.Config

	// Resilience layer.
	MaxBodyBytes     int64         // HTTP request-body bound (default 8 MiB)
	VerifyTolerance  float64       // residual-verification threshold (default 1e-4)
	RetryMax         int           // extra attempts after a retryable failure (default 2, -1 disables)
	RetryBase        time.Duration // first retry backoff, doubled with jitter (default 5ms)
	HedgeAfter       time.Duration // hedged-solve floor delay (0 disables hedging)
	BreakerThreshold int           // consecutive failures that open a breaker (default 5, -1 disables)
	BreakerCooldown  time.Duration // open-breaker cooldown before a half-open probe (default 1s)
	StateDir         string        // crash-safe registry directory ("" disables persistence)
	Chaos            *fault.Chaos  // service-level chaos campaign (nil disables)

	// Tune enables the registration-time autotuner: every newly registered
	// pattern races its configured default against native partition-strategy
	// and preconditioner variants under TuneBudget and serves with the
	// measured winner. Decisions persist in the registry WAL and ride cluster
	// export/import, so a restart or migration never re-races.
	Tune bool
	// TuneBudget bounds one race (default 2s).
	TuneBudget time.Duration
	// TuneSolves is the warm solve count per raced candidate (default 3).
	TuneSolves int
	// RetuneThreshold re-races a tuned system in the background when its
	// recent p99 latency exceeds threshold × the decision's measured winner
	// latency (default 3.0; 0 keeps the default, negative disables).
	RetuneThreshold float64
	// RetuneInterval is the regression-scan period (default 5s).
	RetuneInterval time.Duration

	// DisableRefresh turns the values-only refresh path off: pattern-matching
	// registrations cold-prepare and UpdateSystem is rejected.
	DisableRefresh bool
	// RefreshWarmReplicas bounds how many idle replicas one adoption
	// refreshes in place (0 = all; the remainder re-prepares on demand).
	RefreshWarmReplicas int

	// Telemetry receives every service, pipeline, engine and machine metric
	// (default: a private registry, exposed on /metrics and /stats). Live
	// gauges (queue depth, cache size, breaker counts) are rebound to the
	// most recently constructed service — don't share one registry across
	// concurrently running services.
	Telemetry *telemetry.Registry
}

// OptionsFromConfig derives service options from a configuration file: the
// solver/mpir/recovery blocks become the per-system solver configuration and
// the serve block sizes the service itself.
func OptionsFromConfig(c config.Config) Options {
	o := Options{Solver: config.Config{
		Solver:   c.Solver,
		MPIR:     c.MPIR,
		Recovery: c.Recovery,
		Fault:    c.Fault,
	}}
	if s := c.Serve; s != nil {
		o.CacheCapacity = s.CacheCapacity
		o.ReplicasPerKey = s.ReplicasPerKey
		o.QueueDepth = s.QueueDepth
		o.Workers = s.Workers
		o.DefaultTimeout = time.Duration(s.DefaultTimeoutMs) * time.Millisecond
		o.Strategy = core.PartitionStrategy(s.Partition)
		o.MaxBodyBytes = s.MaxBodyBytes
		o.VerifyTolerance = s.VerifyTolerance
		o.RetryMax = s.RetryMax
		o.RetryBase = time.Duration(s.RetryBaseMs) * time.Millisecond
		o.HedgeAfter = time.Duration(s.HedgeAfterMs) * time.Millisecond
		o.BreakerThreshold = s.BreakerThreshold
		o.BreakerCooldown = time.Duration(s.BreakerCooldownMs) * time.Millisecond
		o.StateDir = s.StateDir
		if ch := s.Chaos; ch != nil && ch.Rate > 0 {
			o.Chaos = fault.NewChaos(ch.Plan())
		}
		if r := s.Refresh; r != nil {
			if r.Enabled != nil && !*r.Enabled {
				o.DisableRefresh = true
			}
			o.RefreshWarmReplicas = r.WarmReplicas
		}
		if t := s.Tune; t != nil {
			o.Tune = t.Enabled
			o.TuneBudget = time.Duration(t.BudgetMs) * time.Millisecond
			o.TuneSolves = t.Solves
			o.RetuneThreshold = t.RetuneThreshold
			o.RetuneInterval = time.Duration(t.RetuneIntervalMs) * time.Millisecond
		}
		if s.Tiles > 0 || s.Chips > 0 {
			mc := ipu.Mk2M2000()
			if s.Tiles > 0 {
				mc.TilesPerChip = s.Tiles
			}
			if s.Chips > 0 {
				mc.Chips = s.Chips
			}
			o.Machine = mc
		}
	}
	return o
}

func (o *Options) fill() {
	if o.CacheCapacity <= 0 {
		o.CacheCapacity = 8
	}
	if o.ReplicasPerKey <= 0 {
		o.ReplicasPerKey = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.Machine == (ipu.Config{}) {
		mc := ipu.Mk2M2000()
		mc.TilesPerChip = 64
		mc.Chips = 1
		o.Machine = mc
	}
	if o.Strategy == "" {
		o.Strategy = core.PartitionContiguous
	}
	if o.Solver.Solver.Type == "" {
		o.Solver = config.Default()
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.VerifyTolerance <= 0 {
		// True (host-recomputed) residuals of converged working-precision
		// solves land around 1e-6; corrupted answers miss by orders of
		// magnitude, so 1e-4 separates them with margin on both sides.
		o.VerifyTolerance = 1e-4
	}
	if o.RetryMax == 0 {
		o.RetryMax = 2
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 5 * time.Millisecond
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = time.Second
	}
	if o.TuneBudget <= 0 {
		o.TuneBudget = 2 * time.Second
	}
	if o.TuneSolves <= 0 {
		o.TuneSolves = 3
	}
	if o.RetuneThreshold == 0 {
		o.RetuneThreshold = 3.0
	}
	if o.RetuneInterval <= 0 {
		o.RetuneInterval = 5 * time.Second
	}
	if o.Telemetry == nil {
		o.Telemetry = telemetry.NewRegistry()
	}
}

// Service is the solver service: registry, prepared-pipeline cache, job
// queue, worker pool and the supervision layer around them (retry, hedging,
// circuit breaking, replica quarantine, residual verification, crash-safe
// registry persistence).
type Service struct {
	opts Options

	// baseCtx is the service-lifetime context: warm-up prepares and replica
	// rebuilds run under it, so Close cancels them instead of leaking work.
	baseCtx context.Context
	cancel  context.CancelFunc

	// wmu serializes publish, the one writer of systems and the registry;
	// it is never held across a prepare and never taken on the solve path.
	wmu sync.Mutex

	mu       sync.Mutex
	closed   bool
	draining bool
	systems  map[string]*system
	cache    map[Key]*entry
	patterns map[Key]*entry // pattern key → most recent entry, for adoption
	lru      *list.List     // front = most recently used
	breakers map[string]*breaker.Breaker

	registry *registry // crash-safe registration log (nil without a StateDir)

	jobs chan *job
	wg   sync.WaitGroup
	aux  sync.WaitGroup // hedge attempts and replica rebuilds in flight

	jitterMu sync.Mutex
	jitter   *rand.Rand

	// corruptHook, when set by tests, mutates each successful solution
	// before residual verification — simulating silent device corruption.
	corruptHook func(x []float64)

	stats statsCollector
}

// New starts a service with its worker pool running. Registrations are not
// persisted even when opts.StateDir is set — use Open for a crash-safe
// service.
func New(opts Options) *Service {
	opts.fill()
	s := &Service{
		opts:     opts,
		systems:  make(map[string]*system),
		cache:    make(map[Key]*entry),
		patterns: make(map[Key]*entry),
		lru:      list.New(),
		breakers: make(map[string]*breaker.Breaker),
		jobs:     make(chan *job, opts.QueueDepth),
		jitter:   rand.New(rand.NewSource(1)),
		stats:    newStatsCollector(opts.Telemetry),
	}
	// Live gauges computed at scrape time. GaugeFunc rebinding is last-wins
	// per name, so on a shared registry these track the most recently
	// constructed service (see Options.Telemetry).
	opts.Telemetry.GaugeFunc("serve_queue_depth",
		"Jobs queued, not yet picked up.",
		func() float64 { return float64(len(s.jobs)) })
	opts.Telemetry.GaugeFunc("serve_cache_size",
		"Resident prepared-pipeline cache entries.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.lru.Len())
		})
	opts.Telemetry.GaugeFunc("serve_breakers_open",
		"Systems currently shedding load.",
		func() float64 { return float64(s.openBreakers()) })
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	if opts.Tune && opts.RetuneThreshold > 0 {
		s.aux.Add(1)
		go s.retuneLoop()
	}
	return s
}

// Open starts a crash-safe service: when opts.StateDir is set, the
// registration WAL and snapshot under it are replayed (each recovered system
// is re-prepared exactly as a fresh registration would be), the state is
// compacted into a new snapshot, and every subsequent registration, update,
// tune decision and deregistration is appended to the WAL before it is
// installed and acknowledged.
func Open(opts Options) (*Service, error) {
	s := New(opts)
	if s.opts.StateDir == "" {
		return s, nil
	}
	reg, recs, err := openRegistry(s.opts.StateDir)
	if err != nil {
		s.Close()
		return nil, err
	}
	reg.errs = s.stats.walErrors
	for _, rec := range recs {
		m, err := rec.Matrix()
		if err != nil {
			s.Close()
			reg.close()
			return nil, fmt.Errorf("serve: replaying %s: %w", rec.ID, err)
		}
		if _, err := s.register(s.baseCtx, m, rec.configPtr(),
			regMeta{id: rec.ID, generation: rec.Generation, tun: rec.Tune, noRace: true}); err != nil {
			s.Close()
			reg.close()
			return nil, fmt.Errorf("serve: replaying %s: %w", rec.ID, err)
		}
	}
	// Registry attaches only after replay, so replayed registrations are not
	// re-appended; compaction folds the old WAL into a fresh snapshot.
	s.mu.Lock()
	s.registry = reg
	s.mu.Unlock()
	if err := s.compact(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// admitLocked reports whether the service takes new work: ErrClosed once
// Close started, ErrDraining after Drain. Callers hold s.mu.
func (s *Service) admitLocked() error {
	switch {
	case s.closed:
		return ErrClosed
	case s.draining:
		return ErrDraining
	}
	return nil
}

// Drain closes admission without stopping the workers: new registrations and
// solves are rejected with ErrDraining while queued and in-flight jobs run to
// completion. /readyz reports "draining" (503) from this point, so a
// health-probing router stops sending work and fails new requests over to
// replica shards. Drain is idempotent and does not block; follow with Close
// (or Shutdown) to stop the service.
func (s *Service) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether admission is closed while in-flight work drains.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.closed
}

// Close stops admission and drains the queue: queued jobs still execute,
// then the workers exit. In-flight registration warm-ups and replica
// rebuilds are canceled through the service-lifetime context; with a
// crash-safe registry attached, the final state is snapshotted before the
// WAL closes. Close blocks until the drain completes.
func (s *Service) Close() error {
	return s.Shutdown(context.Background())
}

// Shutdown is Close with a hard deadline: it stops admission and waits for
// the queue to drain until the context expires. On expiry it returns the
// context's error with workers abandoned mid-job — the caller is expected to
// be exiting the process, so a solve that never returns cannot hang the
// drain forever. A nil error means the drain completed cleanly.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	reg := s.registry
	s.mu.Unlock()
	s.cancel()
	close(s.jobs)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.aux.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// The drain deadline landed first: leave the stragglers behind. The
		// WAL already carries every acknowledged registration, so skipping
		// compaction (and the registry close racing a straggler append) is
		// safe — replay merges snapshot and WAL idempotently.
		return ctx.Err()
	}
	if reg != nil {
		// Best-effort compaction: the WAL alone already carries the state.
		_ = s.compact()
		reg.close()
	}
	return nil
}
